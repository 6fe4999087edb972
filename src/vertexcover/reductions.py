"""Size reductions that decide cover membership for forced vertices.

Each reduction rewrites a subproblem into a smaller one plus a tracked
contribution to the cover size, preserving the optimal total: some optimal
cover of the input extends every commitment made here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle

from .graphs import bits
from .splitting import Subproblem

__all__ = [
    "REDUCTIONS",
    "ReductionOutcome",
    "reduce_neighbor",
    "reduce_dominance",
    "reduce_chain",
]

REDUCTIONS = ("neighbor", "dominance")


@dataclass(frozen=True)
class ReductionOutcome:
    reduced: Subproblem
    removed_vertices: int
    cover_contribution: int


def _outcome(s: Subproblem, alive: int, committed: set[int], degrees=None) -> ReductionOutcome:
    reduced = s
    if alive != s.alive:
        reduced = Subproblem(s.base, alive, s.committed | committed, s.path)
    if degrees is not None:
        reduced.keep_degrees(degrees)
    return ReductionOutcome(reduced, s.n - reduced.n, len(committed))


def reduce_neighbor(s: Subproblem) -> ReductionOutcome:
    """Strip degree-0 vertices, pendant edges, and low-degree triangles.

    Pendant vertex v with neighbor u: u covers the edge, so commit u and
    drop both. Triangle {a, b, c} with a and b of degree exactly 2: c
    together with one of a, b covers all three edges (c also dominates b),
    so commit {c, a} and drop the triangle. Each pass applies the first
    rule that fires, at the lowest vertex id it fires on.

    Degrees are counted once, then kept up to date (only the alive neighbours
    of a deleted vertex change), and handed on as the result's ``degrees``.
    """
    masks = s.adjacency
    degrees: dict[int, int] = {}
    small = [0, 0, 0]  # masks of the alive vertices of degree 0, 1 and 2
    committed: set[int] = set()
    alive, gone, touched = s.alive, 0, s.alive  # the first pass counts every degree
    while True:
        alive &= ~gone
        for v in bits(gone):
            del degrees[v]
            touched |= masks[v]
        touched &= alive
        keep = ~(gone | touched)
        small = [m & keep for m in small]
        for v in bits(touched):
            degree = degrees[v] = (masks[v] & alive).bit_count()
            if degree < 3:
                small[degree] |= 1 << v
        isolated, pendants, degree_two = small
        touched = 0
        if isolated:
            gone = isolated
        elif pendants:
            pendant = (pendants & -pendants).bit_length() - 1
            nbr = masks[pendant] & alive
            committed.add(nbr.bit_length() - 1)
            gone = nbr | (1 << pendant)
        else:
            for a in bits(degree_two):
                nbrs = masks[a] & alive
                low = nbrs & -nbrs
                u, w = low.bit_length() - 1, (nbrs ^ low).bit_length() - 1
                if not (masks[u] >> w) & 1:
                    continue
                if degrees[u] == 2:
                    c = w
                elif degrees[w] == 2:
                    c = u
                else:
                    continue
                committed |= {c, a}
                gone = nbrs | (1 << a)
                break
            else:
                return _outcome(s, alive, committed, degrees)


def reduce_dominance(s: Subproblem) -> ReductionOutcome:
    """Commit v whenever some neighbor u has its closed neighborhood inside v's.

    Any cover must hit the edge (u, v); if it does so via u only, swapping
    u for v still covers everything u covered, so some optimal cover
    contains v.
    """
    masks = s.adjacency
    alive = s.alive
    committed: set[int] = set()
    while True:
        for u in bits(alive):
            nbrs = masks[u] & alive
            v = next((v for v in bits(nbrs) if not nbrs & ~masks[v] & ~(1 << v)), -1)
            if v >= 0:
                committed.add(v)
                alive &= ~(1 << v)
                break
        else:
            return _outcome(s, alive, committed)


def reduce_chain(s: Subproblem, enabled: list[str] | tuple[str, ...]) -> ReductionOutcome:
    """Apply the named reductions in turn, each to its own fixed point, until
    every one has run since the last that removed a vertex."""
    for name in enabled:
        if name not in REDUCTIONS:
            raise ValueError(f"unknown reduction {name!r}; expected one of {REDUCTIONS}")
    current = s
    removed = contribution = 0
    idle = 0  # reductions run since the last one that removed a vertex
    names = cycle(enabled)
    while idle < len(enabled):
        if next(names) == "neighbor":
            outcome = reduce_neighbor(current)
        else:
            outcome = reduce_dominance(current)
        idle = 1 if outcome.removed_vertices else idle + 1
        removed += outcome.removed_vertices
        contribution += outcome.cover_contribution
        current = outcome.reduced
    return ReductionOutcome(current, removed, contribution)
