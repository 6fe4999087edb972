#!/usr/bin/env python3
"""The annealer-facing path: cover problem -> QUBO -> solve -> decode.

A minimum vertex cover instance becomes a quadratic binary objective whose
ground-state energy equals the optimal cover size. Small instances can be
swept exhaustively; larger ones go to the simulated annealer, which plays
the role of annealing hardware here. The exported text form is the hand-off
point for a real backend.
"""

from vertexcover import random_graph
from vertexcover.engine import exact_leaf_solve
from vertexcover.qubo import (
    build_mvc_qubo,
    decode_cover,
    evaluate,
    export_qubo,
    parse_qubo,
    solve_anneal,
    solve_exhaustive,
)

g = random_graph(12, 0.35, seed=21)
print("instance:", g, " optimum:", len(exact_leaf_solve(g)))

q = build_mvc_qubo(g, penalty_a=2, size_b=1)
print("variables:", q.n, " quadratic terms:", len(q.quadratic),
      " constant offset:", q.offset)

# Energies: a cover costs its size, a violated edge costs the penalty.
all_ones = [1] * g.n
print("energy of the all-vertices cover:", evaluate(q, all_ones))
print("energy of the empty set:", evaluate(q, [0] * g.n), "(= penalty x edges)")

assignment, energy = solve_exhaustive(q)
cover = decode_cover(g, assignment)
print("exhaustive sweep: energy", energy, "-> cover", sorted(cover))

# The annealer is a heuristic: repair-and-prune decoding still guarantees a
# valid cover even when a read misses the optimum.
assignment, energy = solve_anneal(q, reads=50, sweeps=80, seed=3)
cover = decode_cover(g, assignment)
print("annealer:        energy", energy, "-> cover", sorted(cover))

# Round-trip the sparse text format.
text = export_qubo(q)
print("\nexport preview:")
for line in text.splitlines()[:6]:
    print(" ", line)
print("  ...")
print("round-trip exact:", parse_qubo(text) == q)
