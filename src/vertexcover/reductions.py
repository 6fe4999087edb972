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


def _outcome(s: Subproblem, alive: int, committed: set[int], levels=None) -> ReductionOutcome:
    reduced = s
    if alive != s.alive:
        reduced = Subproblem(s.base, alive, s.committed | committed, s.path)
        if levels is not None:
            object.__setattr__(reduced, "levels", levels)
    return ReductionOutcome(reduced, s.n - reduced.n, len(committed))


def reduce_neighbor(s: Subproblem) -> ReductionOutcome:
    """Strip degree-0 vertices, pendant edges, and low-degree triangles.

    Pendant vertex v with neighbor u: u covers the edge, so commit u and
    drop both. Triangle {a, b, c} with a and b of degree exactly 2: c
    together with one of a, b covers all three edges (c also dominates b),
    so commit {c, a} and drop the triangle. Each pass applies the first
    rule that fires, at the lowest vertex id it fires on.

    The rules read degree levels 0, 1 and 2 of ``s.levels``. Each deletion
    recounts only the alive neighbours of the deleted vertices, into new
    levels, and the result holds the levels so kept up to date.
    """
    masks = s.adjacency
    levels = s.levels
    committed: set[int] = set()
    alive = s.alive
    while True:
        if 0 in levels:
            gone = levels[0]
        elif 1 in levels:
            pendants = levels[1]
            pendant = (pendants & -pendants).bit_length() - 1
            nbr = masks[pendant] & alive
            committed.add(nbr.bit_length() - 1)
            gone = nbr | (1 << pendant)
        else:
            degree_two = levels.get(2, 0)
            for a in bits(degree_two):
                nbrs = masks[a] & alive
                low = nbrs & -nbrs
                u, w = low.bit_length() - 1, (nbrs ^ low).bit_length() - 1
                if not (masks[u] >> w) & 1:
                    continue
                if (degree_two >> u) & 1:
                    c = w
                elif (degree_two >> w) & 1:
                    c = u
                else:
                    continue
                committed |= {c, a}
                gone = nbrs | (1 << a)
                break
            else:
                return _outcome(s, alive, committed, levels)
        alive &= ~gone
        touched = 0
        for v in bits(gone):
            touched |= masks[v]
        touched &= alive
        keep = ~(gone | touched)
        levels = {d: kept for d, members in levels.items() if (kept := members & keep)}
        for v in bits(touched):
            degree = (masks[v] & alive).bit_count()
            levels[degree] = levels.get(degree, 0) | 1 << v


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
