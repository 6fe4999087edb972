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
    vertices builds no graph. ``committed`` holds ids already decided to be
    in the cover; they are never alive. ``serialize_graph``,
    ``build_mvc_qubo`` and ``decode_cover`` read a subproblem's masks as they
    read a graph's, numbering its vertices 0..n-1 so that i is
    ``vertices()[i]``.

    ``path`` is the node's identity: the root is 1, and ``split`` gives the
    children of p the paths 2p (v in the cover) and 2p + 1 (v out). The bits
    below the leading 1 spell the branches from the root; ``depth`` counts them.
    """

    base: Graph
    alive: int
    committed: frozenset[int] = frozenset()
    path: int = 1

    @classmethod
    def root(cls, g: Graph) -> "Subproblem":
        return cls(base=g, alive=g.alive)

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
    def degrees(self) -> dict[int, int]:
        """Residual degree per alive vertex, in ascending id order."""
        masks, alive = self.base.adjacency, self.alive
        return {v: (masks[v] & alive).bit_count() for v in self.vertices()}

    def keep_degrees(self, degrees: dict[int, int]) -> None:
        """Cache ``degrees`` counted elsewhere, as ``reduce_neighbor`` hands on
        those it kept up to date; they must be what ``degrees`` would give."""
        self.__dict__["degrees"] = degrees

    def drop_caches(self) -> None:
        """Forget the cached ``degrees``; a subproblem kept for later holds none."""
        self.__dict__.pop("degrees", None)


def node_key(seed: int, path: int) -> int:
    """Cantor's pairing of (seed, path), distinct for distinct pairs: the seed of a
    node's tie draw in ``select_vertex`` and of its annealer run at a QUBO leaf."""
    total = seed + path
    return total * (total + 1) // 2 + path


def select_vertex(s: Subproblem, kind: str, seed: int) -> int:
    """Pick the split vertex of the residual graph by the rule ``kind``.

    Tie candidates are listed in ascending id order; the draw among them is
    seeded by ``node_key(seed, s.path)``, which the splits above the node fix
    alone, so it does not depend on the order in which nodes are visited.
    """
    degrees = s.degrees
    if not degrees:
        raise ValueError("cannot select a vertex from an empty graph")
    if kind == "random":
        candidates = list(degrees)
    else:
        if kind == "lowest_degree":
            target = min(degrees.values())
        elif kind == "highest_degree":
            target = max(degrees.values())
        elif kind == "median_degree":
            order = sorted(degrees, key=degrees.__getitem__)
            target = degrees[order[len(order) // 2]]
        else:
            raise ValueError(
                f"unknown selection kind {kind!r}; expected one of {SELECTION_KINDS}"
            )
        candidates = [v for v, d in degrees.items() if d == target]
    if len(candidates) == 1:
        return candidates[0]
    return random.Random(node_key(seed, s.path)).choice(candidates)


def split(s: Subproblem, v: int) -> tuple[Subproblem, Subproblem]:
    """Split at v, returning the (v in cover, v out of cover) children: paths 2p, 2p + 1."""
    if v < 0 or not (s.alive >> v) & 1:
        raise ValueError(f"vertex {v} not in the residual graph")
    vbit = 1 << v
    neighbors = s.base.adjacency[v] & s.alive
    s_plus = Subproblem(s.base, s.alive & ~vbit, s.committed | {v}, 2 * s.path)
    s_minus = Subproblem(
        s.base,
        s.alive & ~(neighbors | vbit),
        s.committed.union(bits(neighbors)),
        2 * s.path + 1,
    )
    return s_plus, s_minus
