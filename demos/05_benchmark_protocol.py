#!/usr/bin/env python3
"""The benchmark protocol, in miniature: seeded sweeps over a size grid.

The grid runs through the CLI's bench-random command, which averages
several seeded repetitions per parameter point into one CSV row.
Leaf-size presets correspond to the largest complete graph embeddable on
three annealer generations.
"""

from vertexcover import LEAF_SIZE_PRESETS, SolveConfig, random_graph_avg_degree, solve
from vertexcover.cli import main

code = main(["bench-random", "--n", "50:80:10", "--avg-degree", "10,20", "--reps", "3"])
if code:
    raise SystemExit(code)

print("\nleaf-size presets (largest embeddable complete graph per machine):")
g = random_graph_avg_degree(90, 30, seed=4242)
for name, size in LEAF_SIZE_PRESETS.items():
    result = solve(g, SolveConfig(leaf_size=size, seed=4242))
    print(f"  {name:>8} (leaf {size:>3}): {result.leaf_count:>3} leaves, "
          f"modeled solution {result.solution_seconds:7.2f}s")
