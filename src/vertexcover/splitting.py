"""Recursive case split on a vertex: either it is in the cover or it is not.

Splitting a subproblem at vertex v yields two children. In the "plus" child
v is taken into the cover and deleted; in the "minus" child v is excluded,
which forces all its neighbors into the cover, so v and its whole
neighborhood are deleted. The two cases are exhaustive, so the optimum of
the parent is the better of the two completions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .graphs import Graph, bits

__all__ = [
    "Subproblem",
    "SELECTION_KINDS",
    "node_key",
    "select_vertex",
    "split",
]

SELECTION_KINDS = ("lowest_degree", "highest_degree", "median_degree", "random")


@dataclass(frozen=True)
class Subproblem:
    """A residual graph: the ``alive`` vertices of the input graph ``base``.

    ``alive`` is a bitmask over ``base``'s vertex ids, and every vertex id a
    subproblem hands out or takes is a ``base`` id. Degrees come from
    ``base``'s fixed adjacency masks restricted to ``alive``, so deleting
    vertices builds no graph. ``committed`` is the mask of the ids already
    decided to be in the cover; they are never alive. ``serialize_graph``,
    ``build_mvc_qubo`` and ``decode_cover`` read a subproblem's masks as they
    read a graph's, numbering its vertices 0..n-1 so that i is
    ``vertices()[i]``.

    ``path`` is the node's identity: the root is 1, and ``split`` gives the
    children of p the paths 2p (v in the cover) and 2p + 1 (v out). The bits
    below the leading 1 spell the branches from the root; ``depth`` counts them.
    """

    base: Graph
    alive: int
    committed: int = 0
    path: int = 1

    @classmethod
    def root(cls, g: "Graph | Subproblem") -> "Subproblem":
        """The root over a Graph's vertices or a Subproblem's alive ones, taking their levels."""
        root = cls(base=getattr(g, "base", g), alive=g.alive)
        object.__setattr__(root, "levels", g.levels)
        return root

    @property
    def adjacency(self) -> tuple[int, ...]:
        return self.base.adjacency

    @property
    def depth(self) -> int:
        return self.path.bit_length() - 1

    @property
    def n(self) -> int:
        return self.alive.bit_count()

    def vertices(self) -> list[int]:
        return bits(self.alive)

    @cached_property
    def levels(self) -> dict[int, int]:
        """The mask of the alive vertices of each residual degree; no mask is
        empty. Counted once per node, unless ``split`` or the neighbour
        reduction set it on the node they made, carried from its parent."""
        masks, alive = self.base.adjacency, self.alive
        levels: dict[int, int] = {}
        for v in bits(alive):
            degree = (masks[v] & alive).bit_count()
            levels[degree] = levels.get(degree, 0) | 1 << v
        return levels

    def drop_caches(self) -> None:
        """Forget the cached ``levels``; a subproblem kept for later holds none."""
        self.__dict__.pop("levels", None)


def node_key(seed: int, path: int) -> int:
    """Cantor's pairing of (seed, path), distinct for distinct pairs: the seed of a
    node's tie draw in ``select_vertex`` and of its annealer run at a QUBO leaf."""
    total = seed + path
    return total * (total + 1) // 2 + path


def select_vertex(s: Subproblem, kind: str, seed: int) -> int:
    """Pick the split vertex of the residual graph by the rule ``kind``.

    The rule picks a degree level of ``s.levels``: the lowest, the highest,
    or that of the vertex at index n // 2 in ascending (degree, id) order.
    Tie candidates are listed in ascending id order; the draw among them is
    seeded by ``node_key(seed, s.path)``, which the splits above the node fix
    alone, so it does not depend on the order in which nodes are visited.
    """
    levels = s.levels
    if not levels:
        raise ValueError("cannot select a vertex from an empty graph")
    if kind == "random":
        candidates = s.vertices()
    else:
        if kind == "lowest_degree":
            target = min(levels)
        elif kind == "highest_degree":
            target = max(levels)
        elif kind == "median_degree":
            rank = s.n // 2
            for target in sorted(levels):
                rank -= levels[target].bit_count()
                if rank < 0:
                    break
        else:
            raise ValueError(
                f"unknown selection kind {kind!r}; expected one of {SELECTION_KINDS}"
            )
        candidates = bits(levels[target])
    if len(candidates) == 1:
        return candidates[0]
    return random.Random(node_key(seed, s.path)).choice(candidates)


def split(s: Subproblem, v: int) -> tuple[Subproblem, Subproblem]:
    """Split at v, returning the (v in cover, v out of cover) children: paths 2p, 2p + 1.

    When ``s`` holds its ``levels``, the plus child gets them shifted: v
    leaves, and each level's members adjacent to v move down one level. The
    minus child, which loses v's whole neighbourhood, counts its own.
    """
    if v < 0 or not (s.alive >> v) & 1:
        raise ValueError(f"vertex {v} not in the residual graph")
    vbit = 1 << v
    neighbors = s.base.adjacency[v] & s.alive
    s_plus = Subproblem(s.base, s.alive & ~vbit, s.committed | vbit, 2 * s.path)
    s_minus = Subproblem(
        s.base, s.alive & ~(neighbors | vbit), s.committed | neighbors, 2 * s.path + 1
    )
    if "levels" in s.__dict__:
        levels: dict[int, int] = {}
        for degree, members in s.levels.items():
            down = members & neighbors
            if down:
                levels[degree - 1] = levels.get(degree - 1, 0) | down
            stay = members & ~(down | vbit)
            if stay:
                levels[degree] = levels.get(degree, 0) | stay
        object.__setattr__(s_plus, "levels", levels)
    return s_plus, s_minus
