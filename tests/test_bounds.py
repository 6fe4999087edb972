import itertools
import random

import pytest

from vertexcover import SolveConfig, is_vertex_cover, random_graph
from vertexcover.bounds import (
    LOWER_METHODS,
    combine_bounds,
    lb_coloring,
    lb_lp,
    lb_spectral,
    ub_greedy_clique,
    ub_local_search,
)
from vertexcover.splitting import Subproblem

from reference import residual_graph
from conftest import complete_graph, cycle_graph, empty_graph, path_graph


def test_lp_examples():
    assert lb_lp(empty_graph(6)) == 0
    assert lb_lp(complete_graph(4)) == 2  # every vertex at one half
    assert lb_lp(path_graph(3)) == 1
    assert lb_lp(cycle_graph(5)) == 3  # LP optimum 5/2, above the colouring bound


def test_spectral_examples():
    assert lb_spectral(empty_graph(7)) == 0
    assert lb_spectral(complete_graph(3)) == 2
    assert lb_spectral(cycle_graph(5)) == 3


def test_coloring_examples():
    for n in (3, 6):
        assert lb_coloring(complete_graph(n)) == n - 1
    assert lb_coloring(empty_graph(5)) == 0
    # classes {0, 1}, {2, 3}, {4}: taking 4 leaves {1} and {2}, which conflict
    assert lb_coloring(cycle_graph(5)) == 3


def test_greedy_clique_examples():
    size, witness = ub_greedy_clique(empty_graph(4))
    assert size == 0 and witness == frozenset()
    size, witness = ub_greedy_clique(complete_graph(6))
    assert size == 5 and len(witness) == 5
    size, witness = ub_greedy_clique(path_graph(3))
    assert size == 1 and witness == frozenset({1})


def test_local_search_cover_is_a_function_of_the_seed():
    # on this graph the perturbation draws lead to different local optima
    g = random_graph(80, 0.1, seed=2)
    covers = [ub_local_search(g, seed) for seed in range(6)]
    assert [ub_local_search(g, seed) for seed in range(6)] == covers
    assert len({cover for _, cover in covers}) >= 3
    assert all(is_vertex_cover(g, cover) for _, cover in covers)


def test_combine_bounds_c5():
    assert combine_bounds(cycle_graph(5), LOWER_METHODS) == 3
    assert combine_bounds(cycle_graph(5), {"spectral"}) == 3


def test_combine_bounds_edgeless():
    assert combine_bounds(empty_graph(4), LOWER_METHODS) == 0


def test_combine_bounds_defaults_to_trivial():
    g = random_graph(9, 0.4, seed=2)
    assert combine_bounds(g, frozenset()) == 0


def test_combine_bounds_is_best_named_bound(corpus_n16):
    """Every subset of the lower bounds gives the max of its members, 0 for none."""
    by_name = {"coloring": lb_coloring, "lp": lb_lp, "spectral": lb_spectral}
    assert set(by_name) == set(LOWER_METHODS)
    for g, _ in corpus_n16:
        values = {name: fn(g) for name, fn in by_name.items()}
        for k in range(len(LOWER_METHODS) + 1):
            for names in itertools.combinations(LOWER_METHODS, k):
                expected = max((values[name] for name in names), default=0)
                assert combine_bounds(g, frozenset(names)) == expected, names


def test_bounds_safety_against_oracle(corpus_n16):
    for g, oracle in corpus_n16:
        for fn in (lb_lp, lb_spectral, lb_coloring):
            assert fn(g) <= oracle, fn.__name__
        size, witness = ub_greedy_clique(g)
        assert size >= oracle
        assert len(witness) == size
        assert is_vertex_cover(g, witness)


def test_spectral_on_subproblem_matches_its_graph(corpus_n16):
    """The mask form builds the same matrix as the renumbered residual graph."""
    rng = random.Random(5)
    for g, _ in corpus_n16:
        sub = Subproblem(base=g, alive=rng.getrandbits(g.n))
        assert lb_spectral(sub) == lb_spectral(residual_graph(sub))
    # a residual that keeps edges, to rule out agreement by emptiness alone
    g = complete_graph(6)
    sub = Subproblem(base=g, alive=0b110101)
    assert (lb_spectral(sub) == lb_spectral(residual_graph(sub))
            == lb_spectral(complete_graph(4)))


def test_lower_never_exceeds_upper_when_sound(corpus_n16):
    for g, _ in corpus_n16:
        assert combine_bounds(g, LOWER_METHODS) <= ub_greedy_clique(g)[0]


def test_reports_deterministic():
    g = random_graph(14, 0.5, seed=8)
    assert combine_bounds(g, LOWER_METHODS) == combine_bounds(g, LOWER_METHODS)


def test_complete_graph_bounds_tight():
    g = complete_graph(7)
    assert combine_bounds(g, LOWER_METHODS) == ub_greedy_clique(g)[0] == 6


def test_unknown_method_rejected():
    for name in ("min_degree", "lovasz"):
        with pytest.raises(ValueError, match=name):
            SolveConfig(lower_bounds={name})
    assert SolveConfig(lower_bounds=["coloring"]).lower_bounds == frozenset({"coloring"})
