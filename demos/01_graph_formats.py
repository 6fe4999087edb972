#!/usr/bin/env python3
"""Graphs in and out: parsing, generators, induced subgraphs."""

from vertexcover import (
    induced_subgraph,
    parse_graph,
    random_graph,
    random_graph_avg_degree,
    serialize_graph,
)

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

# Induced subgraphs renumber densely: vertex i is the i-th smallest kept id.
keep = [0, 2, 3, 4]
sub = induced_subgraph(g, keep)
print("induced on", keep, ":", sub, "edges in original ids:",
      [(keep[u], keep[v]) for u, v in sub.edges()])

# Seeded generators: by edge density, or by target average degree.
r1 = random_graph(80, 0.25, seed=7)
r2 = random_graph_avg_degree(80, 20, seed=7)
print("G(80, 0.25):", r1, " avg degree:", round(2 * r1.m / r1.n, 2))
print("G(80, deg 20):", r2, " avg degree:", round(2 * r2.m / r2.n, 2))
print("same seed, same graph:", random_graph(80, 0.25, seed=7).adjacency == r1.adjacency)
