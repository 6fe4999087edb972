import random

import pytest

from vertexcover import (
    FORMATS,
    GraphParseError,
    build_graph,
    parse_graph,
    random_graph,
    random_graph_avg_degree,
    serialize_graph,
)
from vertexcover.graphs import bits
from vertexcover.splitting import Subproblem

from reference import induced_subgraph, residual_graph
from conftest import complete_graph, path_graph, reparse_by_file_label


def test_bits_lists_set_positions_ascending():
    rng = random.Random(5)
    masks = [0, 1, 2, 0b1011, 1 << 200]
    masks += [rng.getrandbits(rng.randint(1, 300)) for _ in range(500)]
    for mask in masks:
        assert bits(mask) == [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def test_parse_dimacs_triangle():
    g = parse_graph("p edge 3 3\ne 1 2\ne 2 3\ne 1 3", "dimacs")
    assert g.n == 3
    assert set(g.edges()) == {(0, 1), (0, 2), (1, 2)}


def test_parse_dimacs_edgeless():
    g = parse_graph("p edge 2 0", "dimacs")
    assert g.n == 2
    assert g.m == 0


def test_parse_dimacs_comments_ignored():
    g = parse_graph("c a comment\np edge 2 1\nc another\ne 1 2", "dimacs")
    assert g.n == 2
    assert g.m == 1


def test_parse_edge_list_dedup_and_loop():
    g = parse_graph("0 1\n1 0\n1 1", "edge_list")
    assert g.n == 2
    assert set(g.edges()) == {(0, 1)}


def test_parse_edge_list_normalizes_in_input_order():
    g = parse_graph("7 3\n3 9", "edge_list")
    # labels appear as 7, 3, 9 -> ids 0, 1, 2
    assert g.n == 3
    assert set(g.edges()) == {(0, 1), (1, 2)}


def test_parse_matrix_market():
    text = "%%MatrixMarket matrix coordinate pattern symmetric\n% comment\n3 3 2\n2 1\n3 2\n"
    g = parse_graph(text, "matrix_market")
    assert g.n == 3
    assert set(g.edges()) == {(0, 1), (1, 2)}


def test_parse_matrix_market_ignores_weights():
    text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 3.5\n"
    g = parse_graph(text, "matrix_market")
    assert set(g.edges()) == {(0, 1)}


@pytest.mark.parametrize("text,format,bad_line", [
    ("p vertex 3 3", "dimacs", 1),
    ("p edge x 3", "dimacs", 1),
    ("p edge 2 1\ne 1 5", "dimacs", 2),
    ("", "dimacs", 1),
    ("", "edge_list", 1),
    ("1 2 3", "edge_list", 1),
    ("%%MatrixMarket matrix array real general", "matrix_market", 1),
    ("%%MatrixMarket matrix coordinate pattern symmetric\n2 3 1", "matrix_market", 2),
    ("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n1 9", "matrix_market", 3),
    ("%%MatrixMarket matrix coordinate pattern symmetric\n-3 -3 0", "matrix_market", 2),
])
def test_parse_errors_name_line(text, format, bad_line):
    with pytest.raises(GraphParseError) as err:
        parse_graph(text, format)
    assert err.value.line == bad_line
    assert f"line {bad_line}" in str(err.value)


def test_induced_subgraph_complete():
    g = induced_subgraph(complete_graph(4), [0, 1, 3])
    assert g.n == 3
    assert g.m == 3


def test_induced_subgraph_identity():
    g = random_graph(12, 0.5, seed=1)
    sub = induced_subgraph(g, range(12))
    assert sub.adjacency == g.adjacency


def test_induced_subgraph_path():
    keep = [3, 0, 2]
    sub = induced_subgraph(path_graph(4), keep)
    # vertex i is sorted(keep)[i]: 0 isolated, an edge between old 2 and 3
    ids = sorted(keep)
    originals = {(ids[u], ids[v]) for u, v in sub.edges()}
    assert originals == {(2, 3)}
    assert sub.n == 3


def test_induced_subgraph_unknown_vertex():
    with pytest.raises(ValueError):
        induced_subgraph(path_graph(3), [0, 7])


def test_random_graph_extremes():
    assert random_graph(5, 0.0, seed=3).m == 0
    assert random_graph(5, 1.0, seed=3).m == 10


def test_random_graph_rejects_negative_size():
    assert random_graph(0, 0.5, seed=3).n == 0
    with pytest.raises(ValueError):
        random_graph(-3, 0.5, seed=3)
    with pytest.raises(ValueError):
        random_graph_avg_degree(-3, 0, seed=3)


def test_random_graph_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        random_graph(5, 0.5, seed=-1)


def test_random_graph_deterministic():
    a = random_graph(80, 0.5, seed=42)
    b = random_graph(80, 0.5, seed=42)
    assert a.adjacency == b.adjacency
    c = random_graph(80, 0.5, seed=43)
    assert a.adjacency != c.adjacency


def test_random_graph_avg_degree_extremes():
    assert random_graph_avg_degree(50, 49, seed=0).m == 50 * 49 // 2
    assert random_graph_avg_degree(100, 0, seed=0).m == 0
    with pytest.raises(ValueError):
        random_graph_avg_degree(10, 9.5, seed=0)


def test_random_graph_avg_degree_sample_mean():
    # empirical mean degree over 100 seeds should sit within +-1 of the target
    target = 10.0
    total = 0.0
    for seed in range(100):
        g = random_graph_avg_degree(101, target, seed=seed)
        total += 2 * g.m / g.n
    assert abs(total / 100 - target) <= 1.0


@pytest.mark.parametrize("format", FORMATS)
def test_round_trip(format):
    for seed in range(8):
        g = random_graph(3 + 3 * seed, 0.3, seed=seed)
        # a subproblem of every other vertex is written as its own graph
        sub = Subproblem(base=g, alive=g.alive & int("01" * g.n, 2))
        for instance, graph in ((g, g), (sub, residual_graph(sub))):
            text = serialize_graph(instance, format)
            assert reparse_by_file_label(text, format) == graph.adjacency


def test_round_trip_keeps_isolated_vertices():
    g = build_graph(5, [(1, 3)])
    for format in ("dimacs", "edge_list", "matrix_market"):
        assert parse_graph(serialize_graph(g, format), format).n == 5


def test_dimacs_writer_shape():
    text = serialize_graph(build_graph(3, [(0, 2), (0, 1)]), "dimacs")
    lines = text.splitlines()
    assert lines[0].startswith("c ")
    assert lines[1] == "p edge 3 2"
    assert lines[2:] == ["e 1 2", "e 1 3"]


def test_build_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 2)])
