import pytest

from vertexcover import build_graph, random_graph
from vertexcover.reductions import reduce_chain, reduce_dominance, reduce_neighbor
from vertexcover.splitting import Subproblem

from reference import brute_force_oracle, residual_graph
from conftest import complete_graph, cycle_graph, path_graph, star_graph


def test_neighbor_isolated_triangle():
    out = reduce_neighbor(Subproblem.root(complete_graph(3)))
    assert out.removed_vertices == 3
    assert out.cover_contribution == 2
    assert residual_graph(out.reduced).n == 0


def test_neighbor_path3():
    out = reduce_neighbor(Subproblem.root(path_graph(3)))
    assert out.cover_contribution == 1
    assert residual_graph(out.reduced).n == 0
    assert out.reduced.committed == {1}


def test_neighbor_triangle_with_pendant():
    # triangle 0-1-2 plus pendant edge 2-3
    g = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    out = reduce_neighbor(Subproblem.root(g))
    assert out.cover_contribution == 2
    assert residual_graph(out.reduced).n == 0
    assert out.cover_contribution == brute_force_oracle(g)


def test_neighbor_triangle_rule_commits_shared_vertex():
    # two triangles sharing vertex 4, whose degree-2 corners force 4 into the cover
    g = build_graph(5, [(0, 1), (0, 4), (1, 4), (2, 3), (2, 4), (3, 4)])
    out = reduce_neighbor(Subproblem.root(g))
    assert 4 in out.reduced.committed
    total = len(out.reduced.committed) + brute_force_oracle(residual_graph(out.reduced))
    assert total == brute_force_oracle(g)


def test_dominance_single_edge():
    out = reduce_dominance(Subproblem.root(path_graph(2)))
    assert out.cover_contribution == 1
    assert residual_graph(out.reduced).m == 0


def test_dominance_star_commits_center():
    out = reduce_dominance(Subproblem.root(star_graph(4)))
    assert out.reduced.committed == {0}
    assert out.cover_contribution == 1
    assert residual_graph(out.reduced).m == 0


def test_dominance_c5_identity():
    out = reduce_dominance(Subproblem.root(cycle_graph(5)))
    assert out.removed_vertices == 0
    assert out.cover_contribution == 0
    assert residual_graph(out.reduced).adjacency == cycle_graph(5).adjacency


def test_chain_empty_is_identity():
    s = Subproblem.root(random_graph(10, 0.4, seed=2))
    out = reduce_chain(s, [])
    assert out.removed_vertices == 0
    assert out.reduced is s


def test_chain_dominance_solves_path3():
    out = reduce_chain(Subproblem.root(path_graph(3)), ["dominance"])
    assert out.cover_contribution == 1
    assert residual_graph(out.reduced).m == 0


def test_chain_solves_k4():
    out = reduce_chain(Subproblem.root(complete_graph(4)), ["neighbor", "dominance"])
    assert out.cover_contribution == 3
    assert residual_graph(out.reduced).n == 0


def test_chain_unknown_name():
    with pytest.raises(ValueError):
        reduce_chain(Subproblem.root(path_graph(2)), ["folding"])


@pytest.mark.parametrize("chain", [
    ("neighbor",),
    ("dominance",),
    ("neighbor", "dominance"),
    ("dominance", "neighbor"),
])
def test_reduction_soundness(chain, corpus_n16):
    for g, oracle in corpus_n16[:60]:
        out = reduce_chain(Subproblem.root(g), list(chain))
        total = len(out.reduced.committed) + brute_force_oracle(
            residual_graph(out.reduced))
        assert total == oracle
        assert out.cover_contribution == len(out.reduced.committed)


@pytest.mark.parametrize("reducer", [reduce_neighbor, reduce_dominance])
def test_reduction_fixpoint(reducer):
    for seed in range(15):
        g = random_graph(5 + seed, 0.3, seed=seed)
        out = reducer(Subproblem.root(g))
        again = reducer(out.reduced)
        assert again.removed_vertices == 0
        assert again.cover_contribution == 0


def test_outcome_invariants():
    for seed in range(10):
        g = random_graph(12, 0.25, seed=40 + seed)
        s = Subproblem.root(g)
        out = reduce_chain(s, ["neighbor", "dominance"])
        assert residual_graph(out.reduced).n == g.n - out.removed_vertices
        assert out.cover_contribution == len(out.reduced.committed) - len(s.committed)
        assert residual_graph(out.reduced).n <= g.n
