import math
import re

import numpy as np
import pytest

from vertexcover import build_graph, is_vertex_cover, random_graph
from vertexcover.qubo import (
    Qubo,
    build_mvc_qubo,
    decode_cover,
    evaluate,
    export_qubo,
    solve_anneal,
)

from reference import brute_force_oracle, parse_qubo, solve_exhaustive
from conftest import complete_graph, empty_graph


def product_form(g, penalty_a, size_b, x):
    """The un-expanded objective, used to vouch for the coefficient form."""
    value = size_b * sum(x)
    for u, v in g.edges():
        value += penalty_a * (1 - x[u]) * (1 - x[v])
    return value


def test_build_triangle_coefficients():
    q = build_mvc_qubo(complete_graph(3))
    assert q.offset == 6.0
    assert q.linear == (-3.0, -3.0, -3.0)
    assert q.quadratic == {(0, 1): 2.0, (0, 2): 2.0, (1, 2): 2.0}


def test_build_edgeless():
    q = build_mvc_qubo(empty_graph(4), penalty_a=2, size_b=1)
    assert q.offset == 0.0
    assert q.linear == (1.0, 1.0, 1.0, 1.0)
    assert q.quadratic == {}
    assignment, energy = solve_exhaustive(q)
    assert energy == 0.0
    assert not assignment.any()


def test_build_single_edge():
    q = build_mvc_qubo(build_graph(2, [(0, 1)]))
    assert q.offset == 2.0
    assert q.linear == (-1.0, -1.0)
    assert q.quadratic == {(0, 1): 2.0}
    assert evaluate(q, [1, 0]) == 1.0


@pytest.mark.parametrize("penalty_a,size_b", [
    (2, 2), (1, 2), (2, 0), (2, -1),
    # non-finite: an infinite penalty gives the isolated vertex 2 the weight 1 - inf * 0
    (math.inf, 1), (math.inf, math.inf), (math.nan, 1), (2, math.nan),
])
def test_build_rejects_bad_weights(penalty_a, size_b):
    with pytest.raises(ValueError):
        build_mvc_qubo(build_graph(3, [(0, 1)]), penalty_a=penalty_a, size_b=size_b)


def test_evaluate_triangle():
    q = build_mvc_qubo(complete_graph(3))
    assert evaluate(q, [1, 1, 0]) == 2.0
    assert evaluate(q, [0, 0, 0]) == 6.0


def test_evaluate_all_zero_is_offset():
    q = build_mvc_qubo(random_graph(9, 0.5, seed=4))
    assert evaluate(q, [0] * 9) == q.offset


def test_evaluate_length_mismatch():
    q = build_mvc_qubo(complete_graph(3))
    with pytest.raises(ValueError):
        evaluate(q, [1, 0])


def test_exhaustive_single_edge():
    q = build_mvc_qubo(build_graph(2, [(0, 1)]))
    assignment, energy = solve_exhaustive(q)
    assert energy == 1.0
    assert sum(assignment) == 1
    # both endpoints tie at energy 1; lowest binary value wins
    assert tuple(assignment) == (1, 0)


def test_exhaustive_triangle():
    _, energy = solve_exhaustive(build_mvc_qubo(complete_graph(3)))
    assert energy == 2.0


def test_exhaustive_cap():
    q = build_mvc_qubo(empty_graph(31))
    with pytest.raises(ValueError, match="anneal"):
        solve_exhaustive(q)


def test_product_form_matches_expanded_form():
    rng = np.random.default_rng(7)
    for seed in range(15):
        g = random_graph(3 + seed, 0.5, seed=seed)
        q = build_mvc_qubo(g, penalty_a=3.0, size_b=0.5)
        for _ in range(10):
            x = rng.integers(0, 2, g.n)
            assert evaluate(q, x) == pytest.approx(product_form(g, 3.0, 0.5, x))


def test_ground_state_is_cover_size(corpus_n16):
    for g, oracle in corpus_n16[:40]:
        q = build_mvc_qubo(g)
        assignment, energy = solve_exhaustive(q)
        assert energy == pytest.approx(oracle)
        cover = decode_cover(g, assignment)
        assert is_vertex_cover(g, cover)
        assert len(cover) == oracle


def test_cover_energy_identity():
    from vertexcover.engine import exact_leaf_solve

    for seed in range(10):
        g = random_graph(8, 0.5, seed=60 + seed)
        q = build_mvc_qubo(g)
        cover = exact_leaf_solve(g)
        x = [1 if v in cover else 0 for v in range(g.n)]
        # a valid cover's energy is exactly its size; non-covers pay the penalty
        assert evaluate(q, x) == pytest.approx(q.size_b * len(cover))
        assert evaluate(q, [1] * g.n) == pytest.approx(q.size_b * g.n)
        if g.m:
            assert evaluate(q, [0] * g.n) >= q.penalty_a


def test_anneal_edgeless_and_triangle():
    q = build_mvc_qubo(empty_graph(5))
    assignment, energy = solve_anneal(q, seed=11)
    assert energy == 0.0 and not assignment.any()
    hits = 0
    for seed in range(20):
        _, energy = solve_anneal(build_mvc_qubo(complete_graph(3)), seed=seed)
        hits += energy == 2.0
    assert hits == 20


def test_anneal_self_consistent_and_deterministic():
    g = random_graph(14, 0.4, seed=3)
    q = build_mvc_qubo(g)
    a1, e1 = solve_anneal(q, seed=5)
    a2, e2 = solve_anneal(q, seed=5)
    assert (a1 == a2).all() and e1 == e2
    assert e1 == pytest.approx(evaluate(q, a1))


def test_anneal_never_beats_exhaustive():
    for seed in range(12):
        g = random_graph(10, 0.45, seed=80 + seed)
        q = build_mvc_qubo(g)
        _, exact = solve_exhaustive(q)
        _, heur = solve_anneal(q, seed=seed)
        assert heur >= exact - 1e-9


def integer_qubos(count=60, seed=2024):
    """Fixed random QUBOs, n from 1 to 9, every coefficient an integer in [-3, 3].

    Couplings may be negative or zero; every third instance has a zero row
    (a variable with no linear weight and no coupling), and sparse draws
    leave further variables isolated.
    """
    rng = np.random.default_rng(seed)
    qubos = []
    for i in range(count):
        n = 1 + i % 9
        density = (0.3, 0.6, 0.9)[i % 3]
        linear = [float(c) for c in rng.integers(-3, 4, n)]
        quadratic = {
            (u, v): float(rng.integers(-3, 4))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < density
        }
        if i % 3 == 0:
            zero = int(rng.integers(n))
            linear[zero] = 0.0
            quadratic = {key: c for key, c in quadratic.items() if zero not in key}
        qubos.append(Qubo(n=n, linear=tuple(linear), quadratic=quadratic))
    return qubos


def test_anneal_reaches_the_minimum_of_general_qubos():
    qubos = integer_qubos()
    # the corpus holds what the docstring promises
    couplings = [c for q in qubos for c in q.quadratic.values()]
    assert min(couplings) < 0 and 0.0 in couplings
    isolated = [
        q.linear[v] for q in qubos for v in range(q.n)
        if q.n > 1 and not any(v in key for key in q.quadratic)
    ]
    assert 0.0 in isolated and any(isolated)
    for i, q in enumerate(qubos):
        _, exact = solve_exhaustive(q)
        assignment, energy = solve_anneal(q, seed=i)
        assert energy == exact, (i, q)
        assert energy == evaluate(q, assignment)


def test_anneal_rejects_bad_parameters():
    q = build_mvc_qubo(complete_graph(3))
    with pytest.raises(ValueError):
        solve_anneal(q, reads=0)
    with pytest.raises(ValueError):
        solve_anneal(q, sweeps=0)


def test_decode_cover_cases():
    k3 = complete_graph(3)
    assert decode_cover(k3, [1, 1, 0]) == {0, 1}
    repaired = decode_cover(k3, [0, 0, 0])
    assert len(repaired) == 2 and is_vertex_cover(k3, repaired)
    edge = build_graph(2, [(0, 1)])
    assert len(decode_cover(edge, [1, 1])) == 1


def test_decode_always_returns_cover():
    rng = np.random.default_rng(0)
    for seed in range(15):
        g = random_graph(12, 0.3, seed=seed)
        x = rng.integers(0, 2, g.n)
        assert is_vertex_cover(g, decode_cover(g, x))


def test_export_edgeless_two_vertices():
    text = export_qubo(build_mvc_qubo(empty_graph(2)))
    lines = text.splitlines()
    assert "p qubo 0 2 2 0" in lines
    assert "0 0 1.0" in lines and "1 1 1.0" in lines


def test_export_single_edge():
    lines = export_qubo(build_mvc_qubo(build_graph(2, [(0, 1)]))).splitlines()
    assert "0 0 -1.0" in lines
    assert "1 1 -1.0" in lines
    assert "0 1 2.0" in lines


def test_export_round_trip_bit_exact():
    for seed in range(10):
        g = random_graph(3 + 2 * seed, 0.4, seed=seed)
        q = build_mvc_qubo(g, penalty_a=2.25, size_b=1.125)
        assert Qubo(**parse_qubo(export_qubo(q))) == q


@pytest.mark.parametrize("text, message", [
    # a second header would reset the linear terms read before it
    ("p qubo 0 2 1 0\n0 0 1.5\np qubo 0 2 0 0\n", "line 3: second qubo header"),
    ("p qubo 0 2 0 0\n0 0 nan\n", "line 2: non-finite value 'nan'"),
    ("p qubo 0 2 0 0\n0 1 inf\n", "line 2: non-finite value 'inf'"),
    ("c offset nan\np qubo 0 2 0 0\n", "line 1: non-finite value 'nan'"),
    ("c A inf B 1.0\np qubo 0 2 0 0\n", "line 1: non-finite value 'inf'"),
    ("p qubo 0 two 0 0\n", "line 1: malformed number 'two'"),
    ("p qubo 0 -1 0 0\n", "line 1: negative variable count"),
    ("p qubo 0 2 0 0\n0 1.0 2.0\n", "line 2: malformed number '1.0'"),
    # the header's term counts must match the terms that follow it
    ("p qubo 0 2 5 7\n0 0 1\n",
     "line 1: header counts 5 linear and 7 quadratic terms, found 1 and 0"),
    ("c offset 2.0\np qubo 0 3 0 1\n0 1 2\n1 2 2\n",
     "line 2: header counts 0 linear and 1 quadratic terms, found 0 and 2"),
    # a repeated term would silently replace the earlier one
    ("p qubo 0 2 0 2\n0 1 2\n1 0 3\n", "line 3: repeated term (0, 1)"),
    ("p qubo 0 2 2 0\n0 0 2\n0 0 3\n", "line 3: repeated term (0, 0)"),
], ids=["second-header", "nan-linear", "inf-quadratic", "nan-offset", "inf-penalty",
        "non-integer-header", "negative-count", "non-integer-index",
        "too-few-terms", "too-many-terms", "repeated-quadratic", "repeated-linear"])
def test_parse_qubo_refuses_bad_input(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_qubo(text)
