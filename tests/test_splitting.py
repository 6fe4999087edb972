import pytest

from vertexcover import SolveConfig, random_graph
from vertexcover.splitting import Subproblem, select_vertex, split

from reference import brute_force_oracle, residual_graph
from conftest import complete_graph, empty_graph, path_graph, star_graph


def test_select_highest_degree_star():
    s = Subproblem.root(star_graph(4))
    assert select_vertex(s, "highest_degree", 1) == 0


def test_select_all_ties_stable():
    s = Subproblem.root(complete_graph(5))
    for kind in ("lowest_degree", "highest_degree", "median_degree", "random"):
        first = select_vertex(s, kind, 9)
        assert all(select_vertex(s, kind, 9) == first for _ in range(5))


def test_select_lowest_degree_path_tie():
    s = Subproblem.root(path_graph(3))
    for seed in range(6):
        v = select_vertex(s, "lowest_degree", seed)
        assert v in (0, 2)
        assert select_vertex(s, "lowest_degree", seed) == v


def test_select_median_degree_path4():
    # degrees (1, 2, 2, 1): sorted order puts a degree-2 vertex at index 2
    s = Subproblem.root(path_graph(4))
    assert select_vertex(s, "median_degree", 0) in (1, 2)


def test_select_seed_changes_tie_choice():
    s = Subproblem.root(complete_graph(30))
    picks = {select_vertex(s, "random", seed) for seed in range(12)}
    assert len(picks) > 1


def test_select_empty_graph_errors():
    with pytest.raises(ValueError):
        select_vertex(Subproblem.root(empty_graph(0)), "highest_degree", 0)


def test_unknown_strategy_kind():
    with pytest.raises(ValueError, match="best_degree"):
        SolveConfig(strategy="best_degree")
    with pytest.raises(ValueError, match="best_degree"):
        select_vertex(Subproblem.root(path_graph(3)), "best_degree", 0)


def test_split_triangle():
    s = Subproblem.root(complete_graph(3))
    s_plus, s_minus = split(s, 0)
    assert residual_graph(s_plus).n == 2 and residual_graph(s_plus).m == 1
    assert s_plus.committed == 0b001
    assert residual_graph(s_minus).n == 0
    assert s_minus.committed == 0b110
    assert s_plus.depth == s_minus.depth == 1


def test_split_paths_spell_the_branches():
    """The root is path 1; the children of p are 2p (in) and 2p + 1 (out), and
    the depth is the number of bits below the leading one."""
    root = Subproblem.root(path_graph(6))
    assert (root.path, root.depth) == (1, 0)
    s_plus, s_minus = split(root, 2)
    assert (s_plus.path, s_minus.path) == (0b10, 0b11)
    grand_plus, grand_minus = split(s_minus, 4)
    assert (grand_plus.path, grand_minus.path) == (0b110, 0b111)
    assert grand_plus.depth == grand_minus.depth == 2


def test_drop_caches_recomputes_levels():
    s = Subproblem.root(path_graph(4))
    levels = s.levels
    assert levels == {1: 0b1001, 2: 0b0110} and s.levels is levels
    s.drop_caches()
    assert "levels" not in s.__dict__
    assert s.levels == levels and s.levels is not levels


def test_split_star_center():
    star = star_graph(4)
    s_plus, s_minus = split(Subproblem.root(star), 0)
    assert residual_graph(s_plus).n == 4 and residual_graph(s_plus).m == 0
    assert s_plus.committed == 0b00001
    assert residual_graph(s_minus).n == 0
    assert s_minus.committed == 0b11110
    best = min(s_plus.committed.bit_count() + brute_force_oracle(residual_graph(s_plus)),
               s_minus.committed.bit_count() + brute_force_oracle(residual_graph(s_minus)))
    assert best == brute_force_oracle(star) == 1


def test_split_isolated_vertex():
    g = random_graph(5, 0.0, seed=0)
    s_plus, s_minus = split(Subproblem.root(g), 2)
    assert s_plus.committed == 1 << 2
    assert s_minus.committed == 0
    assert residual_graph(s_plus).n == residual_graph(s_minus).n == 4


def test_split_missing_vertex():
    with pytest.raises(ValueError):
        split(Subproblem.root(path_graph(3)), 5)


def test_split_exhaustive_identity():
    # optimum equals the better of the two cases, for every split vertex
    for seed in range(12):
        g = random_graph(4 + seed % 9, 0.35, seed=seed)
        mvc = brute_force_oracle(g)
        s = Subproblem.root(g)
        for v in range(g.n):
            s_plus, s_minus = split(s, v)
            assert mvc == min(1 + brute_force_oracle(residual_graph(s_plus)),
                              g.degrees[v] + brute_force_oracle(residual_graph(s_minus)))


def test_split_shrinks_both_children():
    for seed in range(6):
        g = random_graph(10, 0.4, seed=seed)
        s = Subproblem.root(g)
        for v in range(g.n):
            s_plus, s_minus = split(s, v)
            assert residual_graph(s_plus).n == g.n - 1
            assert residual_graph(s_minus).n == g.n - 1 - g.degrees[v]


def test_split_bookkeeping_monotone_and_disjoint():
    g = random_graph(12, 0.3, seed=5)
    node = Subproblem.root(g)
    seen = 0
    while residual_graph(node).n > 0:
        v = select_vertex(node, "highest_degree", 3)
        s_plus, s_minus = split(node, v)
        for child in (s_plus, s_minus):
            increment = child.committed & ~node.committed
            assert not node.committed & ~child.committed
            assert not (increment & seen)
        seen |= s_plus.committed & ~node.committed
        node = s_plus
    # committed vertices never reappear in the residual
    assert not (node.committed & node.alive)
