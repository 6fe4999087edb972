"""Exact minimum vertex cover via recursive decomposition.

A graph is split at a chosen vertex into the two exhaustive cases (vertex
in the cover, vertex out of the cover), recursively, until the residual
pieces are small enough for a direct solver: a branch-and-bound search, an
exhaustive QUBO sweep, or a simulated annealer standing in for quantum
annealing hardware. Bounds prune hopeless subproblems and reductions shrink
the rest along the way.
"""

from .bounds import (
    LOWER_METHODS,
    combine_bounds,
    lb_coloring,
    lb_matching_half,
    lb_spectral,
    ub_greedy_clique,
)
from .engine import (
    DecomposeResult,
    DepthStats,
    EngineError,
    LEAF_SIZE_PRESETS,
    LEAF_SOLVERS,
    SolveConfig,
    SolveResult,
    brute_force_oracle,
    decompose_only,
    exact_leaf_solve,
    is_vertex_cover,
    solve,
)
from .graphs import (
    FORMATS,
    Graph,
    GraphParseError,
    build_graph,
    induced_subgraph,
    parse_graph,
    random_graph,
    random_graph_avg_degree,
    serialize_graph,
)
from .qubo import (
    EXHAUSTIVE_CAP,
    Qubo,
    build_mvc_qubo,
    decode_cover,
    evaluate,
    export_qubo,
    parse_qubo,
    solve_anneal,
    solve_exhaustive,
)
from .reductions import (
    REDUCTIONS,
    ReductionOutcome,
    reduce_chain,
    reduce_dominance,
    reduce_neighbor,
)
from .splitting import (
    SELECTION_KINDS,
    Subproblem,
    select_vertex,
    split,
)

__version__ = "0.1.0"

__all__ = [
    "DecomposeResult",
    "DepthStats",
    "EngineError",
    "EXHAUSTIVE_CAP",
    "FORMATS",
    "Graph",
    "GraphParseError",
    "LEAF_SIZE_PRESETS",
    "LEAF_SOLVERS",
    "LOWER_METHODS",
    "Qubo",
    "REDUCTIONS",
    "ReductionOutcome",
    "SELECTION_KINDS",
    "SolveConfig",
    "SolveResult",
    "Subproblem",
    "brute_force_oracle",
    "build_graph",
    "build_mvc_qubo",
    "combine_bounds",
    "decode_cover",
    "decompose_only",
    "evaluate",
    "exact_leaf_solve",
    "export_qubo",
    "induced_subgraph",
    "is_vertex_cover",
    "lb_coloring",
    "lb_matching_half",
    "lb_spectral",
    "parse_graph",
    "parse_qubo",
    "random_graph",
    "random_graph_avg_degree",
    "reduce_chain",
    "reduce_dominance",
    "reduce_neighbor",
    "select_vertex",
    "serialize_graph",
    "solve",
    "solve_anneal",
    "solve_exhaustive",
    "split",
    "ub_greedy_clique",
]
