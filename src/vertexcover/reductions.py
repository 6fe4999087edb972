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
    "reduce_chain",
]

REDUCTIONS = ("neighbor",)


@dataclass(frozen=True)
class ReductionOutcome:
    reduced: Subproblem
    removed_vertices: int
    cover_contribution: int


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
    committed = 0  # the mask of the vertices it commits
    alive = s.alive
    while True:
        if 0 in levels:
            gone = levels[0]
        elif 1 in levels:
            pendants = levels[1]
            pendant = (pendants & -pendants).bit_length() - 1
            nbr = masks[pendant] & alive
            committed |= nbr
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
                committed |= 1 << c | 1 << a
                gone = nbrs | (1 << a)
                break
            else:
                if alive == s.alive:
                    return ReductionOutcome(s, 0, 0)
                reduced = Subproblem(s.base, alive, s.committed | committed, s.path)
                object.__setattr__(reduced, "levels", levels)
                return ReductionOutcome(reduced, s.n - reduced.n, committed.bit_count())
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


def reduce_chain(s: Subproblem, enabled: list[str] | tuple[str, ...]) -> ReductionOutcome:
    """``reduce_neighbor(s)`` when ``enabled`` names it, else ``s`` unchanged."""
    for name in enabled:
        if name not in REDUCTIONS:
            raise ValueError(f"unknown reduction {name!r}; expected one of {REDUCTIONS}")
    return reduce_neighbor(s) if "neighbor" in enabled else ReductionOutcome(s, 0, 0)
