"""Lower and upper bounds on the minimum vertex cover size of a graph.

Every lower bound here is a valid upper bound on the independence number
turned around (cover size = n - independent set size), so all bounds are
safe on every input. Bounds are pure functions of the graph and fully
deterministic.

Every bound takes a Graph or a Subproblem alike: it reads only
``adjacency_masks``, the ``alive`` vertex mask, ``vertices()``, ``degrees``
and ``n``, and any vertex ids it returns are those of what it was given. A
subproblem's complement neighbourhood of v is ``alive & ~masks[v]`` less v
itself, so no complement graph is built, and no bound builds a Graph.

The one upper bound, ``greedy_clique``, comes with a witness cover that
attains it; the solver offers that cover to its incumbent.
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
    "greedy_clique_partition_bound",
    "lb_matching_half",
    "lb_min_degree",
    "lb_spectral",
    "lb_coloring",
    "ub_greedy_clique",
    "combine_bounds",
]

LOWER_METHODS = ("matching_half", "spectral", "min_degree", "coloring")
UPPER_METHODS = ("greedy_clique",)


@dataclass(frozen=True)
class BoundConfig:
    """Which bound methods are active. Empty sets fall back to 0 and n."""

    lower_methods: frozenset[str] = frozenset(("coloring",))
    upper_methods: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "lower_methods", frozenset(self.lower_methods))
        object.__setattr__(self, "upper_methods", frozenset(self.upper_methods))
        for name in self.lower_methods:
            if name not in LOWER_METHODS:
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


def greedy_clique_partition_bound(masks, alive: int) -> int:
    """Alive vertices less the cliques of a greedy clique partition.

    Each unused vertex, in ascending id order, starts a clique that takes,
    in ascending id order, every unused vertex adjacent to all its members.
    A cover holds all but at most one vertex of each clique.
    """
    bound = 0
    while alive:
        low = alive & -alive
        alive ^= low
        candidates = masks[low.bit_length() - 1] & alive
        while candidates:
            low = candidates & -candidates
            alive ^= low
            candidates &= masks[low.bit_length() - 1]
            bound += 1
    return bound


def lb_matching_half(g) -> int:
    """Size of a greedy maximal matching; every cover hits each matched edge.

    Each unmatched vertex, in ascending id order, takes its lowest unmatched
    neighbour.
    """
    masks, alive = g.adjacency_masks, g.alive
    matched = 0
    while alive:
        low = alive & -alive
        alive ^= low
        nbrs = masks[low.bit_length() - 1] & alive
        if nbrs:
            alive ^= nbrs & -nbrs
            matched += 1
    return matched


def lb_min_degree(g) -> int:
    """Minimum degree; any independent set leaves at least that many outside."""
    degrees = g.degrees
    return min((degrees[v] for v in g.vertices()), default=0)


def lb_spectral(g) -> int:
    """Eigenvalue inertia bound: independent sets have at most n0 + min(n+, n-) vertices.

    The adjacency matrix lists the alive vertices in ascending id order.
    """
    masks, alive = g.adjacency_masks, g.alive
    index = {v: i for i, v in enumerate(g.vertices())}
    rows, cols = [], []
    for v, i in index.items():
        nbrs = masks[v] & alive
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            rows.append(i)
            cols.append(index[low.bit_length() - 1])
    if not rows:
        return 0
    n = len(index)
    a = np.zeros((n, n))
    a[rows, cols] = 1.0
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


def combine_bounds(g: Graph | Subproblem, cfg: BoundConfig) -> BoundsReport:
    """Best enabled lower and upper bounds, with the trivial 0 and n fallbacks.

    The greedy-clique witness attains the reported upper bound whenever that
    bound is enabled; its ids are those of ``g``.
    """
    lower = cfg.lower_methods
    lower_parts = {}
    if "coloring" in lower:
        lower_parts["coloring"] = lb_coloring(g)
    if "matching_half" in lower:
        lower_parts["matching_half"] = lb_matching_half(g)
    if "min_degree" in lower:
        lower_parts["min_degree"] = lb_min_degree(g)
    if "spectral" in lower:
        lower_parts["spectral"] = lb_spectral(g)

    upper_parts: dict[str, int] = {}
    witness: frozenset[int] | None = None
    if "greedy_clique" in cfg.upper_methods:
        upper_parts["greedy_clique"], witness = ub_greedy_clique(g)
    return BoundsReport(
        lower=max(lower_parts.values(), default=0),
        upper=min(upper_parts.values(), default=g.n),
        lower_parts=lower_parts,
        upper_parts=upper_parts,
        witness_cover=witness,
    )
