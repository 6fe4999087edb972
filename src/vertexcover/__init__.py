"""Exact minimum vertex cover via recursive decomposition.

A graph is split at a chosen vertex into the two exhaustive cases (vertex
in the cover, vertex out of the cover), recursively, until the residual
pieces are small enough for a direct solver: a branch-and-bound search, or
a simulated annealer standing in for quantum annealing hardware. Bounds
prune hopeless subproblems and reductions shrink the rest along the way.

This namespace holds what a library caller needs: ``solve`` and
``decompose_only`` with their configuration and results, and the graph
type with its generators and file formats. Each layer (``splitting``,
``bounds``, ``reductions``, ``qubo``, ``engine``) is importable on its own.
"""

from .engine import (
    DecomposeResult,
    DepthStats,
    EngineError,
    LEAF_SIZE_PRESETS,
    SolveConfig,
    SolveResult,
    decompose_only,
    is_vertex_cover,
    solve,
)
from .graphs import (
    FORMATS,
    Graph,
    GraphParseError,
    build_graph,
    parse_graph,
    random_graph,
    random_graph_avg_degree,
    serialize_graph,
)

__version__ = "0.1.0"

__all__ = [
    "DecomposeResult",
    "DepthStats",
    "EngineError",
    "FORMATS",
    "Graph",
    "GraphParseError",
    "LEAF_SIZE_PRESETS",
    "SolveConfig",
    "SolveResult",
    "build_graph",
    "decompose_only",
    "is_vertex_cover",
    "parse_graph",
    "random_graph",
    "random_graph_avg_degree",
    "serialize_graph",
    "solve",
]
