#!/usr/bin/env python3
"""Pruning machinery: cover-size bounds and graph reductions.

Bounds sandwich the unknown optimum from both sides; reductions commit
forced vertices and shrink the instance without losing optimality.
"""

from vertexcover import build_graph, random_graph
from vertexcover.bounds import (
    LOWER_METHODS,
    combine_bounds,
    lb_coloring,
    lb_lp,
    ub_greedy_clique,
)
from vertexcover.engine import exact_leaf_solve
from vertexcover.graphs import bits
from vertexcover.reductions import reduce_chain
from vertexcover.splitting import Subproblem

print("=== bounds on random instances ===")
header = f"{'n':>3} {'opt':>4} {'lp':>6} {'color':>6} {'clique ub':>9}"
print(header)
for seed in range(6):
    g = random_graph(16, 0.2 + 0.12 * seed, seed=seed)
    opt = len(exact_leaf_solve(g))
    ub, witness = ub_greedy_clique(g)
    print(f"{g.n:>3} {opt:>4} {lb_lp(g):>6} {lb_coloring(g):>6} {ub:>9}")

g = random_graph(16, 0.5, seed=11)
print("\ncombined:", combine_bounds(g, LOWER_METHODS), "<= optimum <=",
      ub_greedy_clique(g)[0])

print("\n=== reductions ===")
# A caterpillar: path spine with pendant legs. Pendant and isolated rules
# dissolve it completely without any branching.
spine = [(i, i + 1) for i in range(4)]
legs = [(i, 5 + i) for i in range(5)]
caterpillar = build_graph(10, spine + legs)
out = reduce_chain(Subproblem.root(caterpillar), ["neighbor"])
print("caterpillar: committed", bits(out.reduced.committed),
      "residual size", out.reduced.n,
      "| optimum", len(exact_leaf_solve(caterpillar)))

# On sparse random graphs, reductions often do a large share of the work.
for seed in (0, 1, 2):
    g = random_graph(40, 0.06, seed=seed)
    out = reduce_chain(Subproblem.root(g), ["neighbor"])
    print(f"G(40, 0.06) seed {seed}: removed {out.removed_vertices:>2} of 40 "
          f"vertices, committed {out.cover_contribution}")
