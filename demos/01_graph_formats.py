#!/usr/bin/env python3
"""Graphs in and out: parsing, generators, and the numbering of a leaf hand-off."""

from vertexcover import parse_graph, random_graph, random_graph_avg_degree, serialize_graph
from vertexcover.splitting import Subproblem

# The classic interchange format: a header and one line per edge, 1-indexed.
dimacs_text = """\
c tiny demo instance
p edge 5 6
e 1 2
e 1 3
e 2 3
e 3 4
e 4 5
e 3 5
"""

g = parse_graph(dimacs_text, "dimacs")
print("parsed:", g)
print("degrees:", g.degrees)
print("edges:", list(g.edges()))

# Round-trip through the other two formats.
for fmt in ("edge_list", "matrix_market"):
    text = serialize_graph(g, fmt)
    again = parse_graph(text, fmt)
    print(f"{fmt}: {len(text.splitlines())} lines, reparsed m={again.m}")

# A subproblem (the input graph's vertices still alive) is written as its own
# graph, numbered densely: its vertex i is vertices()[i], the i-th smallest
# alive id. Leaf files handed to an annealer use this numbering.
sub = Subproblem(base=g, alive=0b11101)  # vertices 0, 2, 3, 4
print("subproblem on", sub.vertices(), "written as:")
print(serialize_graph(sub, "dimacs"), end="")
print("leaf vertex i is input vertex", dict(enumerate(sub.vertices())))

# Seeded generators: by edge density, or by target average degree.
r1 = random_graph(80, 0.25, seed=7)
r2 = random_graph_avg_degree(80, 20, seed=7)
print("G(80, 0.25):", r1, " avg degree:", round(2 * r1.m / r1.n, 2))
print("G(80, deg 20):", r2, " avg degree:", round(2 * r2.m / r2.n, 2))
print("same seed, same graph:", random_graph(80, 0.25, seed=7).adjacency == r1.adjacency)
