"""The full solver: recursive splitting with pruning, reductions, and leaf dispatch.

The traversal is a single-threaded depth-first search with the "vertex in
cover" child explored first. That child shrinks by one vertex per level, so
a leaf is reached quickly and its completed cover becomes the incumbent that
prunes the rest of the tree.

Every node is a ``Subproblem``: a bitmask of live vertices over the input
graph's fixed adjacency masks. Reducing, bounding, selecting, splitting and
both leaf solvers work on that mask: the exact leaf search directly, and a
QUBO leaf through ``build_mvc_qubo`` and ``decode_cover``, whose variable i
is the leaf's vertex ``vertices()[i]``. No node builds a standalone
``Graph``, and every leaf cover comes back in input-graph ids.

There is one search loop, ``_search``. Each node is reduced, then bounded,
and only then made a leaf or split. It is pruned when its committed vertices
plus the best of the ``lower_bounds`` cannot beat the best complete cover
found so far, so a leaf the bound rules out is never dispatched or kept: a
graph whose first incumbent meets its root bound takes no leaf at all.
``solve`` starts from the greedy-clique cover; ``decompose_only``, which
solves no leaf, from ``ub_local_search``'s. The rule holds for every leaf
solver: a triangle takes no leaf, exact or QUBO. The bound, by default the
colouring bound (a clique partition tightened by unit propagation over its
classes) and the LP bound, is asked only whether it reaches the cutoff, so
each stops once it cannot. With ``clique_upper_bound`` set, each node that
survives it and splits offers its greedy-clique cover.

The exact leaf solver runs the same loop on the leaf, down to the empty
graph, with no reduction and the greedy-clique offer at every node. It is
asked only for covers that would beat the incumbent: its cutoff is the
incumbent size less the leaf's committed vertices, and ``exact_leaf_solve``
returns ``None`` when the leaf has no cover below it. A leaf cover could
only ever replace the incumbent when it is below the cutoff, and any such
cover survives every prune the cutoff adds, so the incumbent, the tree and
the final cover are the same as with leaves solved to their own optimum.

Preprocessing time is the decomposition work alone; time spent inside leaf
solvers is excluded and modeled instead as a fixed cost per dispatched leaf.
"""

from __future__ import annotations

import math
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass

from .bounds import (
    LOWER_METHODS,
    combine_bounds,
    ub_greedy_clique,
    ub_local_search,
)
from .graphs import Graph
from .qubo import build_mvc_qubo, decode_cover, solve_anneal, solve_exhaustive
from .reductions import REDUCTIONS, reduce_chain
from .splitting import SELECTION_KINDS, Subproblem, node_key, select_vertex, split

__all__ = [
    "SolveConfig",
    "SolveResult",
    "DecomposeResult",
    "DepthStats",
    "EngineError",
    "LEAF_SIZE_PRESETS",
    "LEAF_SOLVERS",
    "solve",
    "decompose_only",
    "exact_leaf_solve",
    "is_vertex_cover",
]

LEAF_SIZE_PRESETS = {"2x": 46, "2000q": 65, "pegasus": 180}
LEAF_SOLVERS = ("exact", "qubo_exhaustive", "qubo_anneal")
EXACT_LEAF_COMFORT_CAP = 64


class EngineError(RuntimeError):
    """Solver abort, carrying a diagnostic for the failing subproblem."""


@dataclass(frozen=True)
class SolveConfig:
    """Everything that shapes a solve run.

    ``strategy`` names the split vertex rule, one of ``SELECTION_KINDS``.
    ``lower_bounds`` names the lower bounds a node is pruned on, from
    ``LOWER_METHODS``; ``clique_upper_bound`` offers each unpruned node's
    greedy-clique cover to the incumbent.
    ``seed``, which must be non-negative, seeds both its tie-breaks and the
    annealer.
    ``qpu_seconds_per_leaf`` is the modeled per-leaf annealer access cost
    used for the solution-time metric.
    """

    leaf_size: int = 46
    strategy: str = "highest_degree"
    lower_bounds: frozenset[str] = frozenset({"coloring", "lp"})
    clique_upper_bound: bool = False
    reductions: tuple[str, ...] = ("neighbor",)
    leaf_solver: str = "exact"
    seed: int = 0
    qpu_seconds_per_leaf: float = 1.6
    anneal_reads: int = 100
    anneal_sweeps: int = 100

    def __post_init__(self):
        if self.leaf_size < 1:
            raise ValueError(f"leaf_size must be at least 1, got {self.leaf_size}")
        if self.strategy not in SELECTION_KINDS:
            raise ValueError(
                f"unknown selection kind {self.strategy!r}; expected one of {SELECTION_KINDS}"
            )
        if self.leaf_solver not in LEAF_SOLVERS:
            raise ValueError(
                f"unknown leaf solver {self.leaf_solver!r}; expected one of {LEAF_SOLVERS}"
            )
        object.__setattr__(self, "lower_bounds", frozenset(self.lower_bounds))
        for name in self.lower_bounds:
            if name not in LOWER_METHODS:
                raise ValueError(
                    f"unknown lower bound {name!r}; expected one of {LOWER_METHODS}"
                )
        for name in self.reductions:
            if name not in REDUCTIONS:
                raise ValueError(f"unknown reduction {name!r}; expected one of {REDUCTIONS}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.anneal_reads < 1:
            raise ValueError(f"anneal_reads must be at least 1, got {self.anneal_reads}")
        if self.anneal_sweeps < 1:
            raise ValueError(f"anneal_sweeps must be at least 1, got {self.anneal_sweeps}")
        if not (math.isfinite(self.qpu_seconds_per_leaf) and self.qpu_seconds_per_leaf >= 0):
            raise ValueError(
                "qpu_seconds_per_leaf must be finite and non-negative, "
                f"got {self.qpu_seconds_per_leaf}"
            )


@dataclass(frozen=True)
class DepthStats:
    depth: int
    generated: int
    pruned: int
    leaves: int


@dataclass(frozen=True)
class SolveResult:
    cover: frozenset[int]
    size: int
    leaf_count: int
    subproblems_generated: int
    subproblems_pruned: int
    preprocessing_seconds: float
    solution_seconds: float
    per_depth_stats: tuple[DepthStats, ...]
    max_leaf_vertices: int = 0


@dataclass(frozen=True)
class DecomposeResult:
    leaves: tuple[Subproblem, ...]
    incumbent_cover: frozenset[int]
    subproblems_generated: int
    subproblems_pruned: int
    preprocessing_seconds: float
    per_depth_stats: tuple[DepthStats, ...]

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    @property
    def incumbent_size(self) -> int:
        return len(self.incumbent_cover)


def is_vertex_cover(g: Graph, cover) -> bool:
    cover = set(cover)
    return all(u in cover or v in cover for u, v in g.edges())


# -- traversal ---------------------------------------------------------------

class _Stats:
    def __init__(self):
        self.generated = defaultdict(int)
        self.pruned = defaultdict(int)
        self.leaves = defaultdict(int)
        self.leaf_count = 0
        self.max_leaf_vertices = 0
        self.leaf_seconds = 0.0

    def merge_leaf(self, depth: int, n_vertices: int, seconds: float):
        self.leaves[depth] += 1
        self.leaf_count += 1
        self.max_leaf_vertices = max(self.max_leaf_vertices, n_vertices)
        self.leaf_seconds += seconds

    def per_depth(self) -> tuple[DepthStats, ...]:
        depths = sorted(set(self.generated) | set(self.pruned) | set(self.leaves))
        return tuple(
            DepthStats(d, self.generated[d], self.pruned[d], self.leaves[d])
            for d in depths
        )


def _search(root: Subproblem, cfg: SolveConfig, leaf_size: int, size: int, best, leaf, stats):
    """Depth-first search under ``root`` for a cover smaller than ``size``;
    ``best`` is a cover of that size, or ``None`` when ``size`` is only a cutoff.

    Each node is reduced by ``cfg.reductions``, then pruned when its committed
    vertices plus the best of ``cfg.lower_bounds`` reach ``size``. A node left
    with at most ``leaf_size`` vertices goes to ``leaf(node, size)``, which
    returns a cover of the whole graph or ``None``. Any other node offers its
    greedy-clique cover when ``cfg.clique_upper_bound`` is set, then splits,
    its "vertex in cover" child on top of the stack. A cover replaces the
    incumbent only when it is smaller. Returns the final incumbent.
    """
    stats.generated[root.depth] += 1
    stack = [root]
    while stack:
        node = stack.pop()
        if cfg.reductions:
            node = reduce_chain(node, cfg.reductions).reduced

        need = size - len(node.committed)
        if combine_bounds(node, cfg.lower_bounds, need) >= need:
            stats.pruned[node.depth] += 1
            continue

        if node.n <= leaf_size:
            cover = leaf(node, size)
        else:
            cover = node.committed | ub_greedy_clique(node)[1] if cfg.clique_upper_bound else None
            s_plus, s_minus = split(node, select_vertex(node, cfg.strategy, cfg.seed))
            stats.generated[s_plus.depth] += 2
            stack += (s_minus, s_plus)
        if cover is not None and len(cover) < size:
            size, best = len(cover), cover
    return best


# What the exact leaf search runs the loop with, not a setting: no reduction,
# and the greedy-clique offer, which at an edgeless node is its committed
# vertices, so both children of its split are pruned.
_EXACT_LEAF = SolveConfig(reductions=(), clique_upper_bound=True)


def exact_leaf_solve(g: Graph | Subproblem, limit: int | None = None) -> set[int] | None:
    """Exact minimum vertex cover, searched by the solver's own loop down to
    the empty graph.

    Takes a Graph or a Subproblem and returns vertex ids of what it was
    given. Every node is bounded by the default lower bounds, offers its
    greedy-clique cover, and splits at a highest-degree vertex; a node with
    no vertex left is a cover. The open nodes are kept on an explicit stack,
    so the depth is not limited by the interpreter's recursion limit.

    ``limit`` is an optional cutoff: only covers smaller than it are sought,
    and the search starts at the smaller of the greedy-clique cover's size
    and ``limit``. The result is then ``None`` when no cover smaller than
    ``limit`` exists, and otherwise the same cover as without a cutoff.
    """
    if g.n > EXACT_LEAF_COMFORT_CAP:
        warnings.warn(
            f"exact cover search on {g.n} vertices may take a long time",
            RuntimeWarning,
            stacklevel=2,
        )
    root = Subproblem(g.base if isinstance(g, Subproblem) else g, g.alive)
    size, best = ub_greedy_clique(root)
    if limit is not None and limit <= size:
        size, best = limit, None
    best = _search(root, _EXACT_LEAF, 0, size, best, lambda node, _: node.committed, _Stats())
    return None if best is None else set(best)


def _qubo_leaf_cover(node: Subproblem, cfg: SolveConfig) -> set[int]:
    q = build_mvc_qubo(node)
    if cfg.leaf_solver == "qubo_exhaustive":
        assignment, _ = solve_exhaustive(q)
    else:
        seed = node_key(cfg.seed, node.path)
        assignment, _ = solve_anneal(q, cfg.anneal_reads, cfg.anneal_sweeps, seed)
    return decode_cover(node, assignment)


def _dispatch_leaf(node: Subproblem, cfg: SolveConfig, best_size: int, stats: _Stats):
    """Solve one leaf, returning its cover with the committed vertices, or ``None``
    where the exact solver finds none smaller than ``best_size``; only the leaf
    solver's own call counts as leaf time."""
    t0 = time.perf_counter()
    try:
        if cfg.leaf_solver == "exact":
            cover = exact_leaf_solve(node, best_size - len(node.committed))
        else:
            cover = _qubo_leaf_cover(node, cfg)
    except Exception as exc:
        raise EngineError(
            f"leaf solver {cfg.leaf_solver!r} failed on subproblem "
            f"(path={node.path:#b}, n={node.n}): {exc}"
        ) from exc
    stats.merge_leaf(node.depth, node.n, time.perf_counter() - t0)
    return None if cover is None else node.committed | cover


def _run(g: Graph, cfg: SolveConfig, dispatch: bool):
    t_start = time.perf_counter()
    stats = _Stats()
    leaves: list[Subproblem] = []

    def leaf(node: Subproblem, size: int):
        if dispatch:
            return _dispatch_leaf(node, cfg, size, stats)
        stats.merge_leaf(node.depth, node.n, 0.0)
        node.drop_caches()
        leaves.append(node)
        return None

    size, best = ub_greedy_clique(g) if dispatch else ub_local_search(g, node_key(cfg.seed, 1))
    best = _search(Subproblem.root(g), cfg, cfg.leaf_size, size, best, leaf, stats)
    preprocessing = time.perf_counter() - t_start - stats.leaf_seconds
    return best, stats, preprocessing, leaves


def solve(g: Graph, cfg: SolveConfig | None = None) -> SolveResult:
    """Find a minimum vertex cover of g.

    Exact when the leaf solver is exact; with the annealing leaf solver the
    returned cover is always valid but optimal only with the leaf solver's
    own success probability.
    """
    cfg = cfg or SolveConfig()
    cover, stats, preprocessing, _ = _run(g, cfg, dispatch=True)
    if not is_vertex_cover(g, cover):
        raise EngineError("internal error: final cover failed validation")
    solution_seconds = preprocessing + cfg.qpu_seconds_per_leaf * stats.leaf_count
    return SolveResult(
        cover=cover,
        size=len(cover),
        leaf_count=stats.leaf_count,
        subproblems_generated=sum(stats.generated.values()),
        subproblems_pruned=sum(stats.pruned.values()),
        preprocessing_seconds=preprocessing,
        solution_seconds=solution_seconds,
        per_depth_stats=stats.per_depth(),
        max_leaf_vertices=stats.max_leaf_vertices,
    )


def decompose_only(g: Graph, cfg: SolveConfig | None = None) -> DecomposeResult:
    """Decompose to leaves without solving them.

    A node is pruned once its bound reaches the incumbent, so an optimal
    completion survives among the leaves or the incumbent: the best of the
    incumbent and (committed count plus leaf optimum) over the leaves is the
    optimum. There is no leaf when the root bound proves the incumbent optimal.
    """
    cfg = cfg or SolveConfig()
    incumbent, stats, preprocessing, leaves = _run(g, cfg, dispatch=False)
    return DecomposeResult(
        leaves=tuple(leaves),
        incumbent_cover=incumbent,
        subproblems_generated=sum(stats.generated.values()),
        subproblems_pruned=sum(stats.pruned.values()),
        preprocessing_seconds=preprocessing,
        per_depth_stats=stats.per_depth(),
    )
