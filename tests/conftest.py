from itertools import product

import pytest

from vertexcover import Graph, build_graph, parse_graph, random_graph
from vertexcover.graphs import bits

from reference import brute_force_oracle


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def empty_graph(n: int) -> Graph:
    return build_graph(n, [])


def star_graph(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen_graph() -> Graph:
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
             (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    return build_graph(10, edges)


def keller_benchmark_graph(order: int = 4) -> Graph:
    """The classic 171-vertex clique benchmark: the neighborhood subgraph of
    the order-4 Keller tiling graph (tuples over {0..3}, adjacent when they
    differ in two or more coordinates and by exactly 2 somewhere)."""

    def adjacent(a, b):
        diff = [i for i in range(order) if a[i] != b[i]]
        return len(diff) >= 2 and any((a[i] - b[i]) % 4 == 2 for i in diff)

    zero = (0,) * order
    verts = [v for v in product(range(4), repeat=order) if adjacent(zero, v)]
    index = {v: i for i, v in enumerate(verts)}
    edges = [
        (index[a], index[b])
        for i, a in enumerate(verts)
        for b in verts[i + 1:]
        if adjacent(a, b)
    ]
    return build_graph(len(verts), edges)


def reparse_by_file_label(text: str, format: str) -> tuple[int, ...]:
    """Parse graph text and return its adjacency masks under the ids the file names.

    DIMACS and Matrix Market ids parse to themselves less one. An edge list's
    labels are the ids themselves, which the parser renumbers in order of
    first appearance; that renumbering is undone here.
    """
    g = parse_graph(text, format)
    if format != "edge_list":
        return g.adjacency
    labels = list(dict.fromkeys(int(token) for token in text.split()))
    assert sorted(labels) == list(range(g.n))
    adjacency = [0] * g.n
    for i, label in enumerate(labels):
        adjacency[label] = sum(1 << labels[j] for j in bits(g.adjacency[i]))
    return tuple(adjacency)


DENSITIES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def seeded_corpus(count: int, n_lo: int, n_hi: int, seed_base: int):
    """Deterministic (graph, oracle MVC) corpus cycling sizes and densities."""
    out = []
    sizes = list(range(n_lo, n_hi + 1))
    for i in range(count):
        n = sizes[i % len(sizes)]
        density = DENSITIES[i % len(DENSITIES)]
        g = random_graph(n, density, seed=seed_base + i)
        out.append((g, brute_force_oracle(g)))
    return out


@pytest.fixture(scope="session")
def corpus_n24():
    """200 oracle-labelled graphs, n in [5, 24], all densities."""
    return seeded_corpus(200, 5, 24, seed_base=10_000)


@pytest.fixture(scope="session")
def corpus_n16():
    """100 oracle-labelled graphs, n up to 16."""
    return seeded_corpus(100, 4, 16, seed_base=20_000)


@pytest.fixture(scope="session")
def corpus_n20():
    """100 oracle-labelled graphs, n up to 20."""
    return seeded_corpus(100, 4, 20, seed_base=30_000)
