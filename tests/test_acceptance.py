"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS line once its assertions
hold, so a verbose run reads as a checklist. All tolerances are exact
except where a criterion is explicitly statistical.
"""

import itertools
import statistics
import time

from vertexcover import (
    SolveConfig,
    decompose_only,
    is_vertex_cover,
    random_graph,
    solve,
)
from vertexcover import engine
from vertexcover.bounds import (
    LOWER_METHODS,
    lb_coloring,
    lb_lp,
    ub_greedy_clique,
)
from vertexcover.graphs import bits
from vertexcover.qubo import build_mvc_qubo, decode_cover
from vertexcover.reductions import reduce_chain
from vertexcover.splitting import Subproblem, split

from reference import brute_force_oracle, residual_graph, solve_exhaustive
from conftest import keller_benchmark_graph

STRATEGIES = ("lowest_degree", "highest_degree", "median_degree", "random")
REDUCTION_CHAINS = ((), ("neighbor",))
LEAF_SIZES = (4, 8, 16)


def bound_configurations():
    """(lower_bounds, clique_upper_bound) pairs: none, each bound alone, all."""
    configs = [(frozenset(), False)]
    for lower in LOWER_METHODS:
        for clique in (True, False):
            configs.append((frozenset({lower}), clique))
    configs.append((frozenset(LOWER_METHODS), True))
    return configs


def solve_every_combination(corpus, leaf_solver):
    """Solve once per strategy, bound configuration, reduction chain and leaf
    size, spread deterministically over the corpus, each against the oracle;
    returns the number of combinations."""
    combos = list(itertools.product(
        STRATEGIES, bound_configurations(), REDUCTION_CHAINS, LEAF_SIZES
    ))
    for i, (strategy, (lower, clique), chain, leaf_size) in enumerate(combos):
        g, oracle = corpus[i % len(corpus)]
        cfg = SolveConfig(
            leaf_size=leaf_size,
            strategy=strategy,
            lower_bounds=lower,
            clique_upper_bound=clique,
            reductions=chain,
            leaf_solver=leaf_solver,
            seed=i,
        )
        result = solve(g, cfg)
        assert result.size == oracle, (i, strategy, chain, leaf_size, leaf_solver)
        assert is_vertex_cover(g, result.cover)
    return len(combos)


def test_criterion_1_oracle_exactness(corpus_n24):
    """Every strategy, bound configuration, reduction chain and leaf size
    reproduces the brute-force optimum with the exact leaf solver."""
    combos = solve_every_combination(corpus_n24, "exact")
    runs = combos
    # the default configuration additionally runs on every graph
    for i, (g, oracle) in enumerate(corpus_n24):
        result = solve(g, SolveConfig(leaf_size=16, seed=i))
        runs += 1
        assert result.size == oracle
        assert is_vertex_cover(g, result.cover)
    print(f"\nCRITERION 1 PASS: {runs} solves over {combos} configurations "
          f"x {len(corpus_n24)} graphs all match the oracle exactly")


def test_criterion_1_qubo_leaf_path_exactness(corpus_n24, monkeypatch):
    """With the annealer swapped for the reference ground-state sweep, the
    QUBO leaf path (build, solve, decode) reproduces the brute-force optimum
    in every combination."""
    monkeypatch.setattr(engine, "solve_anneal", lambda q, *args: solve_exhaustive(q))
    combos = solve_every_combination(corpus_n24, "qubo_anneal")
    print(f"\nCRITERION 1 PASS: {combos} solves through ground-state QUBO leaves "
          f"all match the oracle exactly")


def test_criterion_2_qubo_equivalence(corpus_n16):
    """Exhaustive ground-state energy equals the optimum cover size and the
    decoded minimizer is a valid cover of that size."""
    for g, oracle in corpus_n16:
        q = build_mvc_qubo(g, penalty_a=2, size_b=1)
        assignment, energy = solve_exhaustive(q)
        assert energy == oracle
        cover = decode_cover(g, assignment)
        assert is_vertex_cover(g, cover)
        assert len(cover) == oracle
    print(f"\nCRITERION 2 PASS: ground-state energy = optimum size on "
          f"{len(corpus_n16)} graphs, all decoded covers valid")


def test_criterion_3_bound_sandwich(corpus_n24):
    """All enabled lower bounds stay at or below the optimum, all upper
    bounds at or above, and the greedy-clique witness is always a cover."""
    for g, oracle in corpus_n24:
        lower = max(lb_lp(g), lb_coloring(g))
        upper, witness = ub_greedy_clique(g)
        assert lower <= oracle <= upper
        assert is_vertex_cover(g, bits(witness))
        assert witness.bit_count() == upper
    print(f"\nCRITERION 3 PASS: bound sandwich held on {len(corpus_n24)} graphs "
          f"with zero violations")


def test_criterion_4_split_identity(corpus_n16):
    """For every vertex, the optimum equals the better of the two split cases."""
    checked = 0
    for g, oracle in corpus_n16:
        root = Subproblem.root(g)
        for v in range(g.n):
            s_plus, s_minus = split(root, v)
            lhs = min(1 + brute_force_oracle(residual_graph(s_plus)),
                      g.degrees[v] + brute_force_oracle(residual_graph(s_minus)))
            assert lhs == oracle, (v, lhs, oracle)
            checked += 1
    print(f"\nCRITERION 4 PASS: split identity verified at {checked} vertices "
          f"across {len(corpus_n16)} graphs")


def test_criterion_5_reduction_soundness(corpus_n20):
    """Committed contribution plus residual optimum equals the input optimum
    for every reduction and chain."""
    checked = 0
    for g, oracle in corpus_n20:
        for chain in REDUCTION_CHAINS:
            out = reduce_chain(Subproblem.root(g), list(chain))
            total = out.reduced.committed.bit_count() + brute_force_oracle(
                residual_graph(out.reduced))
            assert total == oracle, (chain, total, oracle)
            checked += 1
    print(f"\nCRITERION 5 PASS: {checked} reduction applications preserved "
          f"the optimum exactly")


def test_criterion_6_density_trend():
    """Decomposing dense graphs yields fewer surviving leaves than sparse
    ones at the default leaf size."""
    medians = {}
    for density in (0.1, 0.9):
        counts = []
        for seed in range(5):
            g = random_graph(80, density, seed=6000 + seed)
            dec = decompose_only(g, SolveConfig(leaf_size=46, seed=seed))
            counts.append(dec.leaf_count)
        medians[density] = statistics.median(counts)
    assert medians[0.9] < medians[0.1], medians
    print(f"\nCRITERION 6 PASS: median leaf count {medians[0.9]} at density 0.9 "
          f"< {medians[0.1]} at density 0.1 (n=80, leaf size 46)")


def test_criterion_7_metric_model():
    """solution time - preprocessing time = 1.6s x leaf count, exactly, and
    every hardware-preset leaf size caps the dispatched residuals."""
    runs = 0
    for preset in (46, 65, 180):
        for seed in range(3):
            g = random_graph(60, 0.5, seed=7000 + seed)
            cfg = SolveConfig(leaf_size=preset, seed=seed)
            result = solve(g, cfg)
            assert (
                result.solution_seconds - result.preprocessing_seconds
                == 1.6 * result.leaf_count
            )
            assert result.max_leaf_vertices <= preset
            runs += 1
    print(f"\nCRITERION 7 PASS: metric identity exact and leaf-size presets "
          f"respected on {runs} runs")


def test_criterion_8_annealer_standin_quality(corpus_n20):
    """With the annealing leaf solver every cover is valid and the optimum
    is found on at least 95% of runs across 20 seeds."""
    hits = 0
    total = 0
    for i, (g, oracle) in enumerate(corpus_n20):
        for seed in range(20):
            cfg = SolveConfig(leaf_solver="qubo_anneal", seed=seed)
            result = solve(g, cfg)
            assert is_vertex_cover(g, result.cover)
            assert result.size >= oracle
            hits += result.size == oracle
            total += 1
    rate = hits / total
    assert rate >= 0.95, rate
    print(f"\nCRITERION 8 PASS: annealing leaf solver valid on all {total} runs, "
          f"optimal on {rate:.1%}")


def test_criterion_9_benchmark_cross_strategy():
    """The 171-vertex clique benchmark solves under both extreme selection
    strategies with identical cover sizes, well inside the time budget."""
    g = keller_benchmark_graph()
    assert g.n == 171 and g.m == 9435
    t0 = time.perf_counter()
    sizes = {}
    for kind in ("highest_degree", "lowest_degree"):
        cfg = SolveConfig(strategy=kind, seed=1)
        result = solve(g, cfg)
        assert is_vertex_cover(g, result.cover)
        sizes[kind] = result.size
    elapsed = time.perf_counter() - t0
    assert sizes["highest_degree"] == sizes["lowest_degree"], sizes
    assert elapsed < 1800
    print(f"\nCRITERION 9 PASS: 171-vertex benchmark solved by both strategies, "
          f"cover size {sizes['highest_degree']}, {elapsed:.1f}s total")
