"""Size reductions that decide cover membership for forced vertices.

Each reduction rewrites a subproblem into a smaller one plus a tracked
contribution to the cover size, preserving the optimal total: some optimal
cover of the input extends every commitment made here.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _outcome(s: Subproblem, alive: int, committed: set[int]) -> ReductionOutcome:
    if alive == s.alive:
        return ReductionOutcome(s, 0, 0)
    reduced = Subproblem(s.base, alive, s.committed | committed, s.depth, s.ordinal)
    return ReductionOutcome(reduced, s.n - reduced.n, len(committed))


def reduce_neighbor(s: Subproblem) -> ReductionOutcome:
    """Strip degree-0 vertices, pendant edges, and low-degree triangles.

    Pendant vertex v with neighbor u: u covers the edge, so commit u and
    drop both. Triangle {a, b, c} with a and b of degree exactly 2: c
    together with one of a, b covers all three edges (c also dominates b),
    so commit {c, a} and drop the triangle. Each pass applies the first
    rule that fires, at the lowest vertex id it fires on.
    """
    masks = s.adjacency_masks
    alive = s.alive
    committed: set[int] = set()
    while True:
        isolated = 0
        pendant = -1
        degree_two = []
        for v in bits(alive):
            degree = (masks[v] & alive).bit_count()
            if degree == 0:
                isolated |= 1 << v
            elif degree == 1 and pendant < 0:
                pendant = v
            elif degree == 2:
                degree_two.append(v)
        if isolated:
            alive &= ~isolated
            continue
        if pendant >= 0:
            nbr = masks[pendant] & alive
            committed.add(nbr.bit_length() - 1)
            alive &= ~(nbr | (1 << pendant))
            continue
        for a in degree_two:
            nbrs = masks[a] & alive
            low = nbrs & -nbrs
            u, w = low.bit_length() - 1, (nbrs ^ low).bit_length() - 1
            if not (masks[u] >> w) & 1:
                continue
            if (masks[u] & alive).bit_count() == 2:
                c = w
            elif (masks[w] & alive).bit_count() == 2:
                c = u
            else:
                continue
            committed |= {c, a}
            alive &= ~(nbrs | (1 << a))
            break
        else:
            return _outcome(s, alive, committed)


def reduce_dominance(s: Subproblem) -> ReductionOutcome:
    """Commit v whenever some neighbor u has its closed neighborhood inside v's.

    Any cover must hit the edge (u, v); if it does so via u only, swapping
    u for v still covers everything u covered, so some optimal cover
    contains v.
    """
    masks = s.adjacency_masks
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
    """Apply the named reductions in order, cycling until nothing changes."""
    for name in enabled:
        if name not in REDUCTIONS:
            raise ValueError(f"unknown reduction {name!r}; expected one of {REDUCTIONS}")
    current = s
    removed = 0
    contribution = 0
    progressing = True
    while progressing:
        progressing = False
        for name in enabled:
            if name == "neighbor":
                outcome = reduce_neighbor(current)
            else:
                outcome = reduce_dominance(current)
            if outcome.removed_vertices:
                progressing = True
                removed += outcome.removed_vertices
                contribution += outcome.cover_contribution
                current = outcome.reduced
    return ReductionOutcome(current, removed, contribution)
