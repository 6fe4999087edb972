#!/usr/bin/env python3
"""The annealer-facing path: cover problem -> QUBO -> solve -> decode.

A minimum vertex cover instance becomes a quadratic binary objective whose
ground-state energy equals the optimal cover size: an exact cover's
assignment attains it. The simulated annealer plays the role of annealing
hardware here. The exported text form is the hand-off
point for a real backend.
"""

from vertexcover import random_graph
from vertexcover.engine import exact_leaf_solve
from vertexcover.qubo import (
    build_mvc_qubo,
    decode_cover,
    evaluate,
    export_qubo,
    solve_anneal,
)

g = random_graph(12, 0.35, seed=21)
optimum = exact_leaf_solve(g)
print("instance:", g, " optimum:", len(optimum))

q = build_mvc_qubo(g, penalty_a=2, size_b=1)
print("variables:", q.n, " quadratic terms:", len(q.quadratic),
      " constant offset:", q.offset)

# Energies: a cover costs its size, a violated edge costs the penalty.
all_ones = [1] * g.n
print("energy of the all-vertices cover:", evaluate(q, all_ones))
print("energy of the empty set:", evaluate(q, [0] * g.n), "(= penalty x edges)")

ground = [1 if v in optimum else 0 for v in g.vertices()]
print("ground state:    energy", evaluate(q, ground), "-> cover", sorted(optimum))

# The annealer is a heuristic: repair-and-prune decoding still guarantees a
# valid cover even when a read misses the optimum.
assignment, energy = solve_anneal(q, reads=50, sweeps=80, seed=3)
cover = decode_cover(g, assignment)
print("annealer:        energy", energy, "-> cover", sorted(cover))

# The sparse text format a real backend would read.
text = export_qubo(q)
print("\nexport preview:")
for line in text.splitlines()[:6]:
    print(" ", line)
print("  ...")
