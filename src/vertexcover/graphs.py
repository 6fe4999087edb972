"""Undirected simple graphs: representation, generators, and file formats.

Vertex ids are always the dense range 0..n-1, and parsers normalize
arbitrary input labels to that range. ``bits`` lists the vertices of a
bitmask, the form the solver's hot loops work in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "Graph",
    "bits",
    "GraphParseError",
    "parse_graph",
    "serialize_graph",
    "position_edges",
    "random_graph",
    "random_graph_avg_degree",
    "FORMATS",
]

FORMATS = ("dimacs", "edge_list", "matrix_market")


class GraphParseError(ValueError):
    """Raised on malformed graph input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph on vertices 0..n-1.

    Adjacency is a tuple of neighbour bitmasks, one per vertex: bit u of
    ``adjacency[v]`` is set when u and v are adjacent.
    """

    adjacency: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.adjacency)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(mask.bit_count() for mask in self.adjacency)

    @cached_property
    def levels(self) -> dict[int, int]:
        """The mask of the vertices of each degree, as ``Subproblem.levels``."""
        levels: dict[int, int] = {}
        for v, degree in enumerate(self.degrees):
            levels[degree] = levels.get(degree, 0) | 1 << v
        return levels

    @cached_property
    def m(self) -> int:
        return sum(self.degrees) // 2

    @property
    def alive(self) -> int:
        """Bitmask of every vertex, as for a subproblem that is the whole graph."""
        return (1 << self.n) - 1

    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        for u, mask in enumerate(self.adjacency):
            for v in bits(mask >> u + 1 << u + 1):
                yield (u, v)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Construct a Graph, dropping self-loops and collapsing duplicates."""
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
        if u == v:
            continue
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(tuple(adj))


_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    flags = bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)
    return list(compress(range(len(flags)), flags))


def position_edges(g) -> list[tuple[int, int]]:
    """Edges of a Graph or Subproblem as (i, j), i < j, positions in ``vertices()``.

    Read from the masks alone, in lexicographic order: a subproblem's edges
    are those of its residual graph renumbered to 0..n-1.
    """
    masks, alive, ids = g.adjacency, g.alive, g.vertices()
    index = {v: i for i, v in enumerate(ids)}
    edges = []
    for i, v in enumerate(ids):
        higher = (masks[v] & alive) >> (v + 1) << (v + 1)
        while higher:
            low = higher & -higher
            edges.append((i, index[low.bit_length() - 1]))
            higher ^= low
    return edges


def random_graph(n: int, density: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with p = density, deterministic per seed."""
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return build_graph(n, [])
    draws = rng.random(len(pairs))
    edges = [pair for pair, r in zip(pairs, draws) if r < density]
    return build_graph(n, edges)


def random_graph_avg_degree(n: int, avg_degree: float, seed: int) -> Graph:
    """Random graph with expected average degree, via p = avg_degree/(n-1)."""
    if avg_degree < 0 or avg_degree > max(n - 1, 0):
        raise ValueError(
            f"average degree must be in [0, {max(n - 1, 0)}], got {avg_degree}"
        )
    p = avg_degree / (n - 1) if n > 1 else 0.0
    return random_graph(n, p, seed)


# -- parsing ----------------------------------------------------------------

def parse_graph(text: str, format: str = "dimacs") -> Graph:
    """Parse graph text in one of the supported formats.

    Duplicate edges are collapsed and self-loops dropped; vertex ids are
    normalized to 0..n-1 preserving input order.
    """
    if format == "dimacs":
        return _parse_dimacs(text)
    if format == "edge_list":
        return _parse_edge_list(text)
    if format == "matrix_market":
        return _parse_matrix_market(text)
    raise ValueError(f"unknown graph format {format!r}; expected one of {FORMATS}")


def _parse_dimacs(text: str) -> Graph:
    n = None
    edges: list[tuple[int, int]] = []
    saw_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        saw_content = True
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise GraphParseError("duplicate problem line", lineno)
            if len(fields) < 4 or fields[1] != "edge":
                raise GraphParseError(f"malformed header {line!r}", lineno)
            try:
                n = int(fields[2])
                int(fields[3])
            except ValueError:
                raise GraphParseError(f"malformed header {line!r}", lineno) from None
            if n < 0:
                raise GraphParseError("negative vertex count", lineno)
        elif fields[0] == "e":
            if n is None:
                raise GraphParseError("edge before problem line", lineno)
            if len(fields) != 3:
                raise GraphParseError(f"malformed edge line {line!r}", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphParseError(f"malformed edge line {line!r}", lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphParseError(
                    f"vertex index out of declared range 1..{n}", lineno
                )
            edges.append((u - 1, v - 1))
        else:
            raise GraphParseError(f"unrecognized line {line!r}", lineno)
    if n is None:
        raise GraphParseError(
            "empty input" if not saw_content else "missing problem line", 1
        )
    return build_graph(n, edges)


def _parse_edge_list(text: str) -> Graph:
    label_to_id: dict[int, int] = {}
    edges: list[tuple[int, int]] = []

    def intern(label: int) -> int:
        if label not in label_to_id:
            label_to_id[label] = len(label_to_id)
        return label_to_id[label]

    saw_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        saw_content = True
        fields = line.split()
        if len(fields) != 2:
            raise GraphParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphParseError(f"non-integer vertex in {line!r}", lineno) from None
        edges.append((intern(a), intern(b)))
    if not saw_content:
        raise GraphParseError("empty input", 1)
    return build_graph(len(label_to_id), edges)


def _parse_matrix_market(text: str) -> Graph:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise GraphParseError("empty input", 1)
    header = lines[0].split()
    if (
        len(header) < 3
        or not header[0].startswith("%%MatrixMarket")
        or header[1] != "matrix"
        or header[2] != "coordinate"
    ):
        raise GraphParseError(f"malformed header {lines[0]!r}", 1)
    n = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 3:
                raise GraphParseError(f"malformed size line {line!r}", lineno)
            try:
                rows, cols, _ = (int(f) for f in fields)
            except ValueError:
                raise GraphParseError(f"malformed size line {line!r}", lineno) from None
            if rows != cols:
                raise GraphParseError(
                    f"adjacency matrix must be square, got {rows}x{cols}", lineno
                )
            if rows < 0:
                raise GraphParseError("negative vertex count", lineno)
            n = rows
            continue
        if len(fields) not in (2, 3):
            raise GraphParseError(f"malformed entry {line!r}", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphParseError(f"malformed entry {line!r}", lineno) from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphParseError(f"entry index out of range 1..{n}", lineno)
        edges.append((u - 1, v - 1))
    if n is None:
        raise GraphParseError("missing size line", 1)
    return build_graph(n, edges)


# -- serialization ----------------------------------------------------------

def serialize_graph(g, format: str = "dimacs") -> str:
    """Emit graph text that parses back to the same graph.

    ``g`` is a Graph or a Subproblem alike: only ``adjacency``, the
    ``alive`` mask, ``vertices()`` and ``n`` are read. The text numbers the
    vertices 0..n-1 in ascending id order, so a subproblem's vertex i is
    ``vertices()[i]`` and its text is that of its residual graph renumbered
    the same way, without building that graph. An edge list has no header
    line, so it cannot hold a graph with no vertices: that raises
    ``ValueError``.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown graph format {format!r}; expected one of {FORMATS}")
    if format == "edge_list" and not g.n:
        raise ValueError("the edge_list format cannot hold a graph with no vertices")
    edges = position_edges(g)
    n, m = g.n, len(edges)
    if format == "dimacs":
        lines = [f"c undirected graph, {n} vertices, {m} edges", f"p edge {n} {m}"]
        lines.extend(f"e {u + 1} {v + 1}" for u, v in edges)
    elif format == "edge_list":
        # A self-loop line registers a vertex and is dropped by the parser,
        # which is how isolated vertices survive the round trip.
        masks, alive = g.adjacency, g.alive
        lines = [f"{u} {v}" for u, v in edges]
        lines.extend(f"{i} {i}" for i, v in enumerate(g.vertices()) if not masks[v] & alive)
    else:
        lines = ["%%MatrixMarket matrix coordinate pattern symmetric", f"{n} {n} {m}"]
        lines.extend(f"{v + 1} {u + 1}" for u, v in edges)
    return "\n".join(lines) + "\n"
