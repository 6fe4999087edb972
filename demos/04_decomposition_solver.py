#!/usr/bin/env python3
"""The full solver: recursive splitting down to annealer-sized leaves.

Splitting at vertex v produces two exhaustive cases: v joins the cover (v
is deleted), or v stays out (its whole neighborhood joins the cover and is
deleted). Recursing until pieces fit the leaf solver, with bound pruning
and reductions along the way, keeps the search exact.
"""

import statistics

from vertexcover import SolveConfig, decompose_only, random_graph, solve
from vertexcover.engine import exact_leaf_solve

g = random_graph(22, 0.3, seed=5)
print("instance:", g, " optimum:", len(exact_leaf_solve(g)))

for leaf_solver in ("exact", "qubo_anneal"):
    cfg = SolveConfig(leaf_size=8, leaf_solver=leaf_solver, seed=5)
    result = solve(g, cfg)
    print(f"{leaf_solver:>11}: size {result.size}, {result.leaf_count} leaves, "
          f"{result.subproblems_generated} subproblems, "
          f"{result.subproblems_pruned} pruned")

# Vertex selection strategy shapes the tree. Picking the highest-degree
# vertex makes the excluded-case child collapse fastest.
print("\nselection strategy vs tree size (n=60, density 0.3, leaf size 46):")
g = random_graph(60, 0.3, seed=9)
for kind in ("lowest_degree", "highest_degree", "median_degree", "random"):
    cfg = SolveConfig(strategy=kind, seed=9)
    result = solve(g, cfg)
    print(f"{kind:>15}: {result.leaf_count:>3} leaves, "
          f"{result.subproblems_generated:>4} subproblems, size {result.size}")

# Denser graphs decompose into fewer leaves: high degrees mean the
# excluded-case child loses many vertices at once.
print("\nleaf counts by density (n=80, leaf size 46, median of 5 seeds):")
for density in (0.1, 0.3, 0.5, 0.7, 0.9):
    counts = [
        decompose_only(random_graph(80, density, seed=100 + s),
                       SolveConfig(seed=s)).leaf_count
        for s in range(5)
    ]
    bar = "#" * round(statistics.median(counts) / 4)
    print(f"  d={density}: median {statistics.median(counts):>5} {bar}")

# The solution-time model: decomposition cost plus a fixed per-leaf charge
# standing in for annealer access time.
result = solve(random_graph(80, 0.5, seed=13), SolveConfig(seed=13))
print(f"\nmetric: preprocessing {result.preprocessing_seconds:.3f}s + "
      f"1.6s x {result.leaf_count} leaves = {result.solution_seconds:.3f}s modeled")
