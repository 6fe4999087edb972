import inspect
import itertools
import random
import sys

import pytest

from vertexcover import (
    EngineError,
    Graph,
    SolveConfig,
    build_graph,
    decompose_only,
    is_vertex_cover,
    random_graph,
    random_graph_avg_degree,
    solve,
)
from vertexcover import engine
from vertexcover.bounds import LOWER_METHODS
from vertexcover.engine import exact_leaf_solve
from vertexcover.qubo import build_mvc_qubo, solve_anneal
from vertexcover.splitting import node_key

from reference import (
    brute_force_oracle,
    greedy_clique_partition_bound,
    residual_graph,
    scan_bounded_exact_leaf_solve,
)
from conftest import (
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    petersen_graph,
)


def test_solve_triangle_pruned_at_root():
    # the greedy-clique cover (2) meets lb_coloring (2): no leaf is dispatched
    result = solve(complete_graph(3), SolveConfig(leaf_size=46))
    assert result.size == 2
    assert result.leaf_count == 0
    assert result.subproblems_pruned == 1
    assert is_vertex_cover(complete_graph(3), result.cover)


def test_solve_five_cycle_single_leaf():
    # with no lower bound nothing proves the greedy-clique cover (3): the root is a leaf
    result = solve(cycle_graph(5), SolveConfig(leaf_size=46, lower_bounds=set()))
    assert result.size == 3
    assert result.leaf_count == 1
    assert result.subproblems_pruned == 0
    assert is_vertex_cover(cycle_graph(5), result.cover)


def test_solve_five_cycle_is_proved_at_the_root_by_default():
    # the default bounds hold the LP bound, 5/2 rounded up: the greedy cover is optimal
    result = solve(cycle_graph(5))
    assert result.size == 3
    assert result.leaf_count == 0
    assert result.subproblems_pruned == 1
    assert is_vertex_cover(cycle_graph(5), result.cover)


@pytest.mark.parametrize("solver", ["qubo_exhaustive", "qubo_anneal"])
def test_qubo_leaf_is_bounded_first(solver):
    # as with exact leaves, the bound proves the greedy-clique cover optimal at the root
    result = solve(complete_graph(3), SolveConfig(leaf_size=46, leaf_solver=solver))
    assert result.size == 2
    assert result.leaf_count == 0
    assert result.subproblems_pruned == 1


@pytest.mark.parametrize("solver", ["qubo_exhaustive", "qubo_anneal"])
def test_qubo_leaves_build_no_graph(solver, monkeypatch):
    # a QUBO leaf is built and decoded from the subproblem's masks
    def refuse(*args):
        raise AssertionError("Graph built on the solve path")

    g = random_graph(50, 0.3, seed=5)  # keeps 3 leaves past the bound
    monkeypatch.setattr(Graph, "__init__", refuse)
    result = solve(g, SolveConfig(leaf_size=8, leaf_solver=solver, seed=5))
    assert result.leaf_count >= 2
    assert is_vertex_cover(g, result.cover)


def test_solve_edgeless():
    result = solve(empty_graph(6))
    assert result.size == 0
    assert result.cover == frozenset()
    assert result.leaf_count <= 1


def test_solve_triangle_leaf_size_one():
    result = solve(complete_graph(3), SolveConfig(leaf_size=1))
    assert result.size == 2


def test_exact_leaf_solve_examples():
    assert len(exact_leaf_solve(path_graph(4))) == 2
    assert len(exact_leaf_solve(complete_graph(5))) == 4
    assert len(exact_leaf_solve(cycle_graph(6))) == 3
    assert exact_leaf_solve(empty_graph(4)) == set()


def test_exact_leaf_solve_returns_optimal_cover():
    for seed in range(25):
        g = random_graph(6 + seed % 11, 0.4, seed=seed)
        cover = exact_leaf_solve(g)
        assert is_vertex_cover(g, cover)
        assert len(cover) == brute_force_oracle(g)


def test_exact_leaf_solve_warns_above_comfort_cap():
    with pytest.warns(RuntimeWarning):
        exact_leaf_solve(empty_graph(65))


def test_oracle_examples():
    assert brute_force_oracle(complete_graph(3)) == 2
    assert brute_force_oracle(petersen_graph()) == 6
    assert brute_force_oracle(empty_graph(5)) == 0


def test_greedy_clique_partition_bound_examples_and_safety():
    def bound(g):
        return greedy_clique_partition_bound(g.adjacency_masks, g.alive)

    assert bound(empty_graph(5)) == 0
    assert bound(complete_graph(6)) == 5
    assert bound(path_graph(4)) == 2
    assert 2 <= bound(cycle_graph(5)) <= 3
    for seed in range(30):
        g = random_graph(4 + seed % 12, 0.2 + 0.02 * seed, seed=seed)
        assert bound(g) <= brute_force_oracle(g)


def test_oracle_cap():
    with pytest.raises(ValueError):
        brute_force_oracle(empty_graph(25))


def test_solve_matches_oracle_across_configs():
    g = random_graph(20, 0.3, seed=99)
    oracle = brute_force_oracle(g)
    strategies = ["lowest_degree", "highest_degree", "median_degree", "random"]
    bound_cfgs = [  # (lower_bounds, clique_upper_bound)
        (frozenset(), False),
        (LOWER_METHODS, True),
        (frozenset({"coloring"}), False),
    ]
    reductions = [(), ("neighbor",), ("dominance",), ("neighbor", "dominance")]
    for strat, (lower, clique), reds in itertools.product(strategies, bound_cfgs, reductions):
        cfg = SolveConfig(
            leaf_size=5,
            strategy=strat,
            lower_bounds=lower,
            clique_upper_bound=clique,
            reductions=reds,
            seed=2,
        )
        result = solve(g, cfg)
        assert result.size == oracle, (strat, lower, clique, reds)
        assert is_vertex_cover(g, result.cover)


def test_qubo_leaf_solvers_match_oracle():
    for seed in range(8):
        g = random_graph(14, 0.35, seed=200 + seed)
        oracle = brute_force_oracle(g)
        for solver in ("qubo_exhaustive", "qubo_anneal"):
            cfg = SolveConfig(leaf_size=8, leaf_solver=solver, seed=seed)
            result = solve(g, cfg)
            assert is_vertex_cover(g, result.cover)
            assert result.size >= oracle
            if solver == "qubo_exhaustive":
                assert result.size == oracle


def test_metric_identity_exact():
    for seed in range(5):
        g = random_graph(30, 0.2, seed=seed)
        cfg = SolveConfig(leaf_size=8, seed=seed)
        result = solve(g, cfg)
        assert (
            result.solution_seconds - result.preprocessing_seconds
            == cfg.qpu_seconds_per_leaf * result.leaf_count
        )


def test_leaf_discipline():
    for leaf_size in (4, 9, 17):
        g = random_graph(26, 0.3, seed=7)
        result = solve(g, SolveConfig(leaf_size=leaf_size, seed=7))
        assert result.max_leaf_vertices <= leaf_size


def test_determinism():
    g = random_graph(22, 0.4, seed=13)
    cfg = SolveConfig(leaf_size=6, seed=13)
    first = solve(g, cfg)
    second = solve(g, cfg)
    assert first.cover == second.cover
    assert first.leaf_count == second.leaf_count
    assert first.subproblems_generated == second.subproblems_generated
    assert first.per_depth_stats == second.per_depth_stats


def test_pruning_preserves_optimum():
    for seed in range(6):
        g = random_graph(16, 0.35, seed=300 + seed)
        bare = solve(g, SolveConfig(leaf_size=4, lower_bounds=(), reductions=(), seed=seed))
        tuned = solve(g, SolveConfig(leaf_size=4, lower_bounds=LOWER_METHODS,
                                     clique_upper_bound=True,
                                     reductions=("neighbor", "dominance"), seed=seed))
        assert bare.size == tuned.size


def test_leaf_solver_failure_aborts_with_diagnostic():
    g = random_graph(40, 0.2, seed=1)
    cfg = SolveConfig(leaf_size=46, leaf_solver="qubo_exhaustive", seed=1)
    with pytest.raises(EngineError, match="qubo_exhaustive"):
        solve(g, cfg)


def test_per_depth_stats_account_for_all_nodes():
    g = random_graph(18, 0.3, seed=11)
    result = solve(g, SolveConfig(leaf_size=5, seed=11))
    assert sum(row.generated for row in result.per_depth_stats) == result.subproblems_generated
    assert sum(row.pruned for row in result.per_depth_stats) == result.subproblems_pruned
    assert sum(row.leaves for row in result.per_depth_stats) == result.leaf_count


def test_decompose_only_whole_graph_is_single_leaf():
    g = random_graph(12, 0.4, seed=21)
    cfg = SolveConfig(leaf_size=20, reductions=(), lower_bounds=set(), seed=21)
    dec = decompose_only(g, cfg)
    assert dec.leaf_count == 1
    assert residual_graph(dec.leaves[0]).adjacency == g.adjacency
    assert dec.leaves[0].committed == frozenset()


def test_decompose_only_leaves_drop_their_caches(monkeypatch):
    # every leaf is bounded, which fills Subproblem.degrees; a kept leaf drops it
    dropped = []
    monkeypatch.setattr(engine.Subproblem, "drop_caches", lambda leaf: dropped.append(leaf))
    dec = decompose_only(random_graph(64, 0.25, seed=3), SolveConfig(leaf_size=28, seed=3))
    assert dec.leaf_count > 1
    assert list(map(id, dropped)) == list(map(id, dec.leaves))


def test_decompose_only_leaves_hold_no_degrees():
    # the reduction seeds Subproblem.degrees on every node it shrinks; kept
    # leaves must still hold none, or a long leaf list keeps a dict per leaf
    for chain in ((), ("neighbor",), ("dominance",), ("neighbor", "dominance")):
        cfg = SolveConfig(leaf_size=28, reductions=chain, seed=3)
        dec = decompose_only(random_graph(64, 0.25, seed=3), cfg)
        assert dec.leaf_count > 1
        assert all("degrees" not in leaf.__dict__ for leaf in dec.leaves)


def test_decompose_only_triangle_recovers_optimum():
    dec = decompose_only(complete_graph(3), SolveConfig(leaf_size=1))
    candidates = [dec.incumbent_size]
    candidates += [
        len(leaf.committed) + brute_force_oracle(residual_graph(leaf))
        for leaf in dec.leaves
    ]
    assert min(candidates) == 2


def test_decompose_only_leaf_minimum_equals_oracle():
    # a node that can at best tie the incumbent is pruned, so the optimum is
    # the best of the incumbent and the leaves' completions
    for seed in range(10):
        g = random_graph(15, 0.35, seed=400 + seed)
        oracle = brute_force_oracle(g)
        dec = decompose_only(g, SolveConfig(leaf_size=5, seed=seed))
        assert is_vertex_cover(g, dec.incumbent_cover)
        best = min([dec.incumbent_size] + [
            len(leaf.committed) + brute_force_oracle(residual_graph(leaf))
            for leaf in dec.leaves
        ])
        assert best == oracle


def test_decompose_only_takes_no_leaf_when_the_incumbent_meets_the_root_bound():
    # the 4-cycle 0-2-3-4 with a pendant 1 on 3: the colouring bound and the
    # optimum are both 2; the greedy-clique cover {2, 3, 4} misses it, and one
    # (1,2)-swap, 0 out and 2 and 4 in, finds {0, 3}
    g = build_graph(5, [(0, 2), (0, 4), (1, 3), (2, 3), (3, 4)])
    dec = decompose_only(g, SolveConfig(leaf_size=2, reductions=()))
    assert dec.incumbent_cover == {0, 3}
    assert dec.leaf_count == 0
    assert dec.subproblems_generated == dec.subproblems_pruned == 1


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(leaf_size=0)
    with pytest.raises(ValueError):
        SolveConfig(leaf_solver="annealer")
    with pytest.raises(ValueError):
        SolveConfig(reductions=("qpbo",))


@pytest.mark.parametrize("field, value", [
    ("anneal_reads", 0),
    ("anneal_sweeps", 0),
    ("qpu_seconds_per_leaf", -1.0),
    ("qpu_seconds_per_leaf", float("nan")),
    ("qpu_seconds_per_leaf", float("inf")),
    ("seed", -1),
])
def test_config_rejects_bad_numeric_settings(field, value):
    with pytest.raises(ValueError, match=field):
        SolveConfig(**{field: value})


def test_config_accepts_smallest_valid_numeric_settings():
    SolveConfig(qpu_seconds_per_leaf=0.0, anneal_reads=1, anneal_sweeps=1)


def test_exact_leaf_solve_disjoint_triangles_is_fast():
    # the clique-partition bound is tight here; a matching bound is half of it
    k = 1500
    g = build_graph(3 * k, [
        (3 * i + a, 3 * i + b) for i in range(k) for a, b in ((0, 1), (1, 2), (0, 2))
    ])
    with pytest.warns(RuntimeWarning):
        cover = exact_leaf_solve(g)
    assert len(cover) == 2 * k
    assert is_vertex_cover(g, cover)


def test_exact_leaf_solve_cutoff_examples():
    g = cycle_graph(6)  # cover number 3
    assert exact_leaf_solve(g, 4) == exact_leaf_solve(g)
    assert exact_leaf_solve(g, 3) is None
    assert exact_leaf_solve(empty_graph(3), 1) == set()
    assert exact_leaf_solve(empty_graph(3), 0) is None
    assert exact_leaf_solve(empty_graph(0), -2) is None


def test_dense_leaf_graph_solves_as_with_the_scan_bounded_leaf_search(monkeypatch):
    """The benchmark's dense_leaf base graph, whose leaves are full-size exact
    searches: the optimum 81, and the cover and tree of a run whose leaves bound
    each branch only after its degree scan."""
    g = random_graph_avg_degree(100, 20, seed=3)
    result = solve(g, SolveConfig(seed=1))
    monkeypatch.setattr(engine, "exact_leaf_solve", scan_bounded_exact_leaf_solve)
    reference = solve(g, SolveConfig(seed=1))
    assert result.size == 81
    assert is_vertex_cover(g, result.cover)
    assert result.cover == reference.cover
    assert result.leaf_count == reference.leaf_count
    assert result.subproblems_generated == reference.subproblems_generated
    assert result.per_depth_stats == reference.per_depth_stats


def counting(monkeypatch, *names: str) -> dict[str, int]:
    """Count the calls the engine makes to each of its module-level ``names``."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(engine, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(engine, name, counted)
    return calls


def test_each_node_is_reduced_once_and_each_exact_leaf_solved_once(monkeypatch):
    """The exact leaf search runs the solver's loop, but reduces nothing and
    takes no leaf of its own: ``reduce_chain`` runs once per generated node,
    and ``exact_leaf_solve`` once per leaf, as traced benchmark runs check."""
    g = random_graph(50, 0.3, seed=5)
    cfg = SolveConfig(leaf_size=20, seed=5)
    calls = counting(monkeypatch, "reduce_chain", "exact_leaf_solve", "split")
    result = solve(g, cfg)
    assert result.leaf_count > 2
    assert calls["split"] > (result.subproblems_generated - 1) // 2  # leaf searches split too
    assert calls["reduce_chain"] == result.subproblems_generated
    assert calls["exact_leaf_solve"] == result.leaf_count
    calls.update(dict.fromkeys(calls, 0))
    dec = decompose_only(g, cfg)
    assert calls["reduce_chain"] == dec.subproblems_generated
    assert calls["exact_leaf_solve"] == 0


@pytest.mark.filterwarnings("ignore:exact cover search")
def test_exact_leaf_solve_closes_edgeless_nodes(monkeypatch):
    """An edgeless node offers its committed vertices as a cover, so both its
    children are pruned: isolated vertices add no split to the search."""
    dense = random_graph(20, 0.5, seed=1)
    splits, sizes = [], set()
    for k in (10, 40, 200):
        calls = counting(monkeypatch, "split")
        sizes.add(len(exact_leaf_solve(build_graph(20 + k, dense.edges()))))
        splits.append(calls["split"])
        monkeypatch.undo()
    assert sizes == {len(exact_leaf_solve(dense))}
    assert splits[0] > 0 and splits == [splits[0]] * 3, splits


def gadget_plus_four_cycles(k: int):
    """A 6-vertex gadget (cover 3) followed by k disjoint 4-cycles (cover 2 each)."""
    edges = [(0, 3), (0, 5), (1, 2), (1, 4), (2, 3), (3, 4), (4, 5)]
    for i in range(k):
        a = 6 + 4 * i
        edges += [(a, a + 1), (a + 1, a + 2), (a + 2, a + 3), (a + 3, a)]
    return build_graph(6 + 4 * k, edges)


def test_exact_leaf_solve_depth_not_bounded_by_recursion_limit():
    # The search on this graph goes about k branch levels deep.
    k = 300
    g = gadget_plus_four_cycles(k)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        with pytest.warns(RuntimeWarning):
            cover = exact_leaf_solve(g)
    finally:
        sys.setrecursionlimit(limit)
    assert len(cover) == 3 + 2 * k
    assert is_vertex_cover(g, cover)


def test_random_strategy_draws_from_config_seed(monkeypatch):
    """With strategy="random" every split vertex is the draw keyed by
    node_key(SolveConfig.seed, path) from the node's vertices, so that seed
    alone decides the tree; different seeds give different trees."""
    g = random_graph(40, 0.2, seed=17)
    original = engine.select_vertex
    picks = []

    def recording_select(node, kind, seed):
        v = original(node, kind, seed)
        picks.append((node, v))
        return v

    monkeypatch.setattr(engine, "select_vertex", recording_select)
    trees = set()
    for seed in range(4):
        picks.clear()
        solve(g, SolveConfig(leaf_size=8, strategy="random", seed=seed))
        assert len(picks) > 10
        for node, v in picks:
            assert v == random.Random(node_key(seed, node.path)).choice(node.vertices())
        trees.add(tuple(v for _, v in picks))
    assert len(trees) == 4


def test_anneal_seed_is_the_leaf_node_key(monkeypatch):
    """Each annealer run is seeded by node_key(SolveConfig.seed, path) of its
    leaf, so a leaf's run depends on the seed and its place in the tree alone."""
    g = random_graph(50, 0.3, seed=5)  # keeps 3 leaves past the bound
    built, seeds = [], []

    def recording_build(node, *args):
        built.append(node)
        return build_mvc_qubo(node, *args)

    def recording_anneal(q, reads, sweeps, seed):
        seeds.append(seed)
        return solve_anneal(q, reads, sweeps, seed)

    monkeypatch.setattr(engine, "build_mvc_qubo", recording_build)
    monkeypatch.setattr(engine, "solve_anneal", recording_anneal)
    cfg = SolveConfig(leaf_size=10, leaf_solver="qubo_anneal", seed=5, anneal_reads=4)
    result = solve(g, cfg)
    assert result.leaf_count == len(built) == len(seeds) > 2
    assert seeds == [node_key(5, node.path) for node in built]
    assert len({node.path for node in built}) == len(built)
