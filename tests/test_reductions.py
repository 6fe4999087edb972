import pytest

from vertexcover import build_graph, random_graph
from vertexcover.reductions import reduce_chain, reduce_neighbor
from vertexcover.splitting import Subproblem

from reference import brute_force_oracle, residual_graph
from conftest import complete_graph, path_graph


def test_neighbor_isolated_triangle():
    out = reduce_neighbor(Subproblem.root(complete_graph(3)))
    assert out.removed_vertices == 3
    assert out.cover_contribution == 2
    assert residual_graph(out.reduced).n == 0


def test_neighbor_path3():
    out = reduce_neighbor(Subproblem.root(path_graph(3)))
    assert out.cover_contribution == 1
    assert residual_graph(out.reduced).n == 0
    assert out.reduced.committed == 1 << 1


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
    assert out.reduced.committed >> 4 & 1
    total = out.reduced.committed.bit_count() + brute_force_oracle(residual_graph(out.reduced))
    assert total == brute_force_oracle(g)


def test_chain_empty_is_identity():
    s = Subproblem.root(random_graph(10, 0.4, seed=2))
    out = reduce_chain(s, [])
    assert out.removed_vertices == 0
    assert out.reduced is s


def test_chain_unknown_name():
    for name in ("folding", "dominance"):
        with pytest.raises(ValueError, match=name):
            reduce_chain(Subproblem.root(path_graph(2)), [name])


@pytest.mark.parametrize("chain", [
    ("neighbor",),
])
def test_reduction_soundness(chain, corpus_n16):
    for g, oracle in corpus_n16[:60]:
        out = reduce_chain(Subproblem.root(g), list(chain))
        total = out.reduced.committed.bit_count() + brute_force_oracle(
            residual_graph(out.reduced))
        assert total == oracle
        assert out.cover_contribution == out.reduced.committed.bit_count()


@pytest.mark.parametrize("reducer", [reduce_neighbor])
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
        out = reduce_chain(s, ["neighbor"])
        assert residual_graph(out.reduced).n == g.n - out.removed_vertices
        assert out.cover_contribution == (
            out.reduced.committed.bit_count() - s.committed.bit_count()
        )
        assert residual_graph(out.reduced).n <= g.n
