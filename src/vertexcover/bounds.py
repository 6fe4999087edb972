"""Lower and upper bounds on the minimum vertex cover size of a graph.

Every lower bound here is a valid upper bound on the independence number
turned around (cover size = n - independent set size), so all bounds are
safe on every input. Bounds are pure functions of the graph and fully
deterministic.

The combinatorial bounds take a Graph or a Subproblem alike: they read only
``adjacency_masks``, the ``alive`` vertex mask, ``vertices()``, ``degrees``
and ``n``, and return vertex ids of the object they were given. A
subproblem's complement neighbourhood of v is ``alive & ~masks[v]`` less v
itself, so no complement graph is built. The spectral bound and registered
bounds take a Graph, which ``combine_bounds`` builds only when one of them
is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph, bits
from .splitting import Subproblem

__all__ = [
    "BoundsReport",
    "BoundConfig",
    "LOWER_METHODS",
    "UPPER_METHODS",
    "greedy_matching",
    "lb_matching_half",
    "lb_min_degree",
    "lb_spectral",
    "lb_coloring",
    "ub_greedy_clique",
    "combine_bounds",
    "register_lower_bound",
]

LOWER_METHODS = ("matching_half", "spectral", "min_degree", "coloring")
UPPER_METHODS = ("greedy_clique", "decomposition_incumbent")

# name -> Graph -> int; extension point for additional lower bounds
# (an SDP-based bound, say) without touching the solver
_LOWER_REGISTRY: dict = {}


def register_lower_bound(name: str, fn) -> None:
    """Make an extra lower-bound method available to BoundConfig."""
    if name in _LOWER_REGISTRY or name in ("greedy_clique", "decomposition_incumbent"):
        raise ValueError(f"bound method {name!r} already registered")
    _LOWER_REGISTRY[name] = fn


@dataclass(frozen=True)
class BoundConfig:
    """Which bound methods are active. Empty sets fall back to 0 and n."""

    lower_methods: frozenset[str] = frozenset(("coloring",))
    upper_methods: frozenset[str] = frozenset(("decomposition_incumbent",))

    def __post_init__(self):
        object.__setattr__(self, "lower_methods", frozenset(self.lower_methods))
        object.__setattr__(self, "upper_methods", frozenset(self.upper_methods))
        for name in self.lower_methods:
            if name not in LOWER_METHODS and name not in _LOWER_REGISTRY:
                raise ValueError(f"unknown lower bound method {name!r}")
        for name in self.upper_methods:
            if name not in UPPER_METHODS:
                raise ValueError(f"unknown upper bound method {name!r}")

    @classmethod
    def none(cls) -> "BoundConfig":
        return cls(frozenset(), frozenset())

    @classmethod
    def all(cls) -> "BoundConfig":
        return cls(frozenset(LOWER_METHODS), frozenset(UPPER_METHODS))


@dataclass(frozen=True)
class BoundsReport:
    lower: int
    upper: int
    lower_parts: dict[str, int] = field(default_factory=dict)
    upper_parts: dict[str, int] = field(default_factory=dict)
    witness_cover: frozenset[int] | None = None


def greedy_matching(masks, alive: int) -> int:
    """Size of a greedy maximal matching among the ``alive`` vertices.

    Each unmatched vertex, in ascending id order, takes its lowest unmatched
    neighbour; every cover hits each matched edge.
    """
    matched = 0
    while alive:
        low = alive & -alive
        alive ^= low
        nbrs = masks[low.bit_length() - 1] & alive
        if nbrs:
            alive ^= nbrs & -nbrs
            matched += 1
    return matched


def lb_matching_half(g) -> int:
    """Size of a greedy maximal matching; every cover hits each matched edge."""
    return greedy_matching(g.adjacency_masks, g.alive)


def lb_min_degree(g) -> int:
    """Minimum degree; any independent set leaves at least that many outside."""
    degrees = g.degrees
    return min((degrees[v] for v in g.vertices()), default=0)


def lb_spectral(g: Graph) -> int:
    """Eigenvalue inertia bound: independent sets have at most n0 + min(n+, n-) vertices."""
    n = g.n
    if n == 0 or g.m == 0:
        return 0
    a = np.zeros((n, n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    try:
        eigs = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError:
        return 0  # degraded: fall back to the trivial bound
    tol = 1e-8 * float(np.max(np.abs(eigs)))
    n_zero = int(np.sum(np.abs(eigs) <= tol))
    n_pos = int(np.sum(eigs > tol))
    n_neg = n - n_zero - n_pos
    return max(0, n - (n_zero + min(n_pos, n_neg)))


def lb_coloring(g) -> int:
    """n minus a greedy proper coloring of the complement.

    The coloring count bounds the complement's clique number from above,
    hence the independence number of g, hence the cover size from below.
    Vertices are colored in ascending (degree, id) order, that is largest
    complement degree first; a class can take v when none of its members
    is a complement neighbour of v, i.e. all of them are neighbours of v.
    """
    masks = g.adjacency_masks
    classes: list[int] = []  # bitmask of vertices per color class
    for v in sorted(g.vertices(), key=g.degrees.__getitem__):
        outside = ~masks[v]
        for i, members in enumerate(classes):
            if not members & outside:
                classes[i] = members | (1 << v)
                break
        else:
            classes.append(1 << v)
    return max(0, g.n - len(classes))


def ub_greedy_clique(g) -> tuple[int, frozenset[int]]:
    """Cover from a greedy maximal clique of the complement.

    The clique is an independent set of g, so everything outside it is a
    vertex cover. Vertices join in ascending (degree, id) order when they
    have no neighbour in the clique. Returns (cover size, cover).
    """
    masks = g.adjacency_masks
    clique = 0  # bitmask
    for v in sorted(g.vertices(), key=g.degrees.__getitem__):
        if not clique & masks[v]:
            clique |= 1 << v
    cover = frozenset(bits(g.alive & ~clique))
    return len(cover), cover


def combine_bounds(
    g: Graph | Subproblem, cfg: BoundConfig, incumbent: int | None = None
) -> BoundsReport:
    """Best enabled lower and upper bounds, with the trivial 0 and n fallbacks.

    ``incumbent`` feeds the decomposition bound: the best complete cover seen
    so far, expressed as a budget for this graph. The greedy-clique witness
    is kept only when it attains the reported upper bound; its ids are
    those of ``g``.
    """
    mask_fns = {
        "matching_half": lb_matching_half,
        "min_degree": lb_min_degree,
        "coloring": lb_coloring,
    }
    graph_fns = {"spectral": lb_spectral, **_LOWER_REGISTRY}
    graph = g if isinstance(g, Graph) else None
    lower_parts = {}
    for name in sorted(cfg.lower_methods):
        if name in mask_fns:
            lower_parts[name] = mask_fns[name](g)
        else:
            graph = graph or g.graph
            lower_parts[name] = graph_fns[name](graph)
    lower = max(lower_parts.values(), default=0)

    upper_parts: dict[str, int] = {}
    witness: frozenset[int] | None = None
    if "greedy_clique" in cfg.upper_methods:
        size, cover = ub_greedy_clique(g)
        upper_parts["greedy_clique"] = size
        witness = cover
    if "decomposition_incumbent" in cfg.upper_methods and incumbent is not None:
        upper_parts["decomposition_incumbent"] = incumbent
    upper = min(list(upper_parts.values()) + [g.n])
    if witness is not None and len(witness) != upper:
        witness = None
    return BoundsReport(
        lower=lower,
        upper=upper,
        lower_parts=lower_parts,
        upper_parts=upper_parts,
        witness_cover=witness,
    )
