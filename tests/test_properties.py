"""Property tests: random small graphs, QUBOs and solver settings against the oracles."""

import itertools
import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vertexcover import (
    FORMATS,
    SolveConfig,
    build_graph,
    decompose_only,
    is_vertex_cover,
    serialize_graph,
    solve,
)
from vertexcover.bounds import (
    LOWER_METHODS,
    combine_bounds,
    lb_coloring,
    lb_lp,
    ub_greedy_clique,
    ub_local_search,
)
from vertexcover.engine import exact_leaf_solve
from vertexcover.graphs import bits, position_edges
from vertexcover.qubo import (
    Qubo,
    build_mvc_qubo,
    color_classes,
    decode_cover,
    evaluate,
    solve_anneal,
    solve_exhaustive,
)
from vertexcover.reductions import REDUCTIONS, reduce_chain, reduce_dominance
from vertexcover.splitting import SELECTION_KINDS, Subproblem

from reference import (
    LP_CAP,
    brute_force_oracle,
    half_integral_lp_optimum,
    residual_graph,
    scan_bounded_exact_leaf_solve,
)
from conftest import reparse_by_file_label


@st.composite
def graphs(draw, max_n: int = 14):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [pair for pair, keep in zip(pairs, present) if keep])


configs = st.builds(
    SolveConfig,
    leaf_size=st.integers(1, 14),
    strategy=st.sampled_from(SELECTION_KINDS),
    lower_bounds=st.frozensets(st.sampled_from(LOWER_METHODS)),
    clique_upper_bound=st.booleans(),
    reductions=st.lists(st.sampled_from(("neighbor", "dominance")), unique=True).map(tuple),
    leaf_solver=st.sampled_from(("exact", "qubo_exhaustive")),
    seed=st.integers(0, 1000),
)


@settings(max_examples=300, deadline=None)
@given(graphs(), configs)
def test_solve_matches_oracle(g, cfg):
    result = solve(g, cfg)
    assert result.size == brute_force_oracle(g)
    assert len(result.cover) == result.size
    assert is_vertex_cover(g, result.cover)


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=12), configs, st.sampled_from(("qubo_exhaustive", "qubo_anneal")))
def test_bounds_never_change_a_qubo_solve_cover(g, cfg, solver):
    """A QUBO leaf the bound prunes cannot beat the incumbent, and the annealer is
    seeded by the leaf's path, so the bounds move only the leaf and pruned counts."""
    cfg = replace(cfg, leaf_solver=solver, anneal_reads=4, anneal_sweeps=10)
    bounded = solve(g, cfg)
    unbounded = solve(g, replace(cfg, lower_bounds=frozenset()))
    assert bounded.cover == unbounded.cover
    assert bounded.leaf_count <= unbounded.leaf_count


@settings(max_examples=300, deadline=None)
@given(graphs(), configs)
def test_decompose_only_offline_completion_matches_oracle(g, cfg):
    """Each leaf completes to a cover; the best completion, or the incumbent, is optimal."""
    dec = decompose_only(g, cfg)
    sizes = [dec.incumbent_size]
    for leaf in dec.leaves:
        ids = leaf.vertices()
        assert not leaf.committed & set(ids)
        leaf_cover = exact_leaf_solve(residual_graph(leaf))
        completion = leaf.committed | {ids[v] for v in leaf_cover}
        assert is_vertex_cover(g, completion)
        sizes.append(len(leaf.committed) + brute_force_oracle(residual_graph(leaf)))
    assert is_vertex_cover(g, dec.incumbent_cover)
    assert min(sizes) == brute_force_oracle(g)


@settings(max_examples=300, deadline=None)
@given(graphs(), configs)
def test_decompose_only_leaves_nest_as_the_bound_set_grows(g, cfg):
    """A node is its split path, whatever else was visited: with the same seed,
    a larger bound set only prunes more, so its leaves, as (path, alive,
    committed), are a subset of a smaller set's. The incumbent stays the root's,
    as no split node offers a cover."""
    runs = []
    for bounds in (frozenset(), frozenset({"coloring"}), LOWER_METHODS):
        dec = decompose_only(g, replace(cfg, lower_bounds=bounds, clique_upper_bound=False))
        runs.append({(leaf.path, leaf.alive, leaf.committed) for leaf in dec.leaves})
    assert runs[0] >= runs[1] >= runs[2]


@settings(max_examples=300, deadline=None)
@given(graphs(), st.integers(0, 2**14 - 1), st.integers(0, 1000))
def test_ub_local_search_is_a_seeded_cover_between_optimum_and_greedy(g, keep, seed):
    """The root search returns a cover of what it was given, no larger than the
    greedy-clique cover it starts from and no smaller than the optimum, and the
    same cover again for the same seed; on a graph and on a subproblem."""
    for instance in (g, Subproblem(base=g, alive=g.alive & keep)):
        size, cover = ub_local_search(instance, seed)
        ids = instance.vertices()
        assert size == len(cover) and cover <= set(ids)
        residual = residual_graph(Subproblem(base=g, alive=instance.alive))
        assert is_vertex_cover(residual, {ids.index(v) for v in cover})
        assert brute_force_oracle(residual) <= size <= ub_greedy_clique(instance)[0]
        assert ub_local_search(instance, seed) == (size, cover)


@settings(max_examples=300, deadline=None)
@given(graphs(), st.integers(0, 2**14 - 1))
def test_exact_leaf_solve_cutoff_matches_oracle(g, keep):
    """With a cutoff the leaf solver returns None exactly when no smaller cover exists,
    and otherwise the cover it returns without one; on a graph and on a subproblem."""
    sub = Subproblem(base=g, alive=g.alive & keep)
    optimum_of_sub = brute_force_oracle(residual_graph(sub))
    for instance, optimum in ((g, brute_force_oracle(g)), (sub, optimum_of_sub)):
        unbounded = exact_leaf_solve(instance)
        for limit in range(instance.n + 2):
            bounded = exact_leaf_solve(instance, limit)
            if optimum >= limit:
                assert bounded is None
            else:
                assert bounded == unbounded


FIVE_TRIANGLES = build_graph(15, [
    (3 * i + a, 3 * i + b) for i in range(5) for a, b in ((0, 1), (1, 2), (0, 2))
])


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=16), st.integers(0, 2**16 - 1))
# a path: every branch ends in pendant chains
@example(build_graph(9, [(i, i + 1) for i in range(8)]), 0b111111011)
# cover number 10: limits 10 and 11 sit at the root bound
@example(FIVE_TRIANGLES, 2**15 - 1)
@example(build_graph(7, [(0, v) for v in range(1, 7)]), 0b1111110)
# the greedy-clique cover {2, 3, 4} is not optimal
@example(build_graph(5, [(0, 2), (1, 3), (1, 4), (2, 3), (2, 4)]), 0)
def test_exact_leaf_solve_matches_the_scan_bounded_search(g, keep):
    """The solver's loop, run as a leaf search, returns a cover of the size the
    hand-written reference search returns, or None where it does, with no
    limit and every limit in 0..n+1; on a graph and on a subproblem. The
    covers themselves may differ: the two break degree ties differently."""
    sub = Subproblem(base=g, alive=g.alive & keep)
    for instance in (g, sub):
        ids = instance.vertices()
        residual = residual_graph(Subproblem(base=g, alive=instance.alive))
        for limit in (None, *range(instance.n + 2)):
            expected = scan_bounded_exact_leaf_solve(instance, limit)
            got = exact_leaf_solve(instance, limit)
            if expected is None:
                assert got is None, limit
            else:
                assert got is not None and len(got) == len(expected), limit
                assert is_vertex_cover(residual, {ids.index(v) for v in got}), limit


def first_fit_classes(g) -> list[int]:
    """Reference colouring of the complement: each vertex, in ascending (degree,
    id) order, joins the first class whose members are all its neighbours."""
    masks = g.adjacency_masks
    classes: list[int] = []
    for v in sorted(g.vertices(), key=g.degrees.__getitem__):
        for i, members in enumerate(classes):
            if not members & ~masks[v]:
                classes[i] = members | 1 << v
                break
        else:
            classes.append(1 << v)
    return classes


@settings(max_examples=300, deadline=None)
@given(graphs(), st.integers(0, 2**14 - 1))
@example(build_graph(1, []), 1)  # limit n + 1 = 2 leaves a class budget of -1
@example(build_graph(3, []), 0)
@example(build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]), 0b11111)
def test_lb_coloring_limit_decides_like_the_full_bound(g, keep):
    """The bound lies between first-fit's and the optimum, and exceeds
    first-fit's by at most its single-vertex classes, since every conflict
    holds one. With every limit it reaches the limit exactly when the full
    bound does, and then lies between the two; below it, it stays a safe
    bound. On a graph and a subproblem."""
    sub = Subproblem(base=g, alive=g.alive & keep)
    for instance, graph in ((g, g), (sub, residual_graph(sub))):
        full = lb_coloring(instance)
        classes = first_fit_classes(instance)
        plain = instance.n - len(classes)  # first-fit's bound
        units = sum(not c & (c - 1) for c in classes)
        assert plain <= full <= brute_force_oracle(graph)
        assert full - plain <= units
        for limit in range(instance.n + 2):
            bounded = lb_coloring(instance, limit)
            assert (bounded >= limit) == (full >= limit), limit
            if bounded >= limit:
                assert limit <= bounded <= full
            else:
                assert 0 <= bounded <= full


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=LP_CAP), st.integers(0, 2**LP_CAP - 1))
@example(build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]), 0b11111)
def test_lb_lp_is_the_rounded_up_lp_optimum(g, keep):
    """The double-cover matching bound is the cover LP's optimum rounded up; on a
    graph and on a subproblem."""
    sub = Subproblem(base=g, alive=g.alive & keep)
    for instance, graph in ((g, g), (sub, residual_graph(sub))):
        assert lb_lp(instance) == math.ceil(half_integral_lp_optimum(graph))


@settings(max_examples=300, deadline=None)
@given(graphs(), st.integers(0, 2**14 - 1))
def test_lb_lp_limit_decides_like_the_full_bound(g, keep):
    """With every limit the bound reaches the limit exactly when the full bound
    does, and is then the full bound; below it, it stays a safe bound. On a
    graph and a subproblem."""
    sub = Subproblem(base=g, alive=g.alive & keep)
    for instance in (g, sub):
        full = lb_lp(instance)
        for limit in range(instance.n + 2):
            bounded = lb_lp(instance, limit)
            assert (bounded >= limit) == (full >= limit), limit
            if bounded >= limit:
                assert bounded == full, limit
            else:
                assert 0 <= bounded <= full, limit


def recount_reduce_neighbor(s):
    """Reference: the same rules with every degree recounted on each pass."""
    masks, alive, committed = s.adjacency_masks, s.alive, set()
    while True:
        degree = {v: (masks[v] & alive).bit_count() for v in bits(alive)}
        isolated = sum(1 << v for v, d in degree.items() if d == 0)
        pendants = [v for v, d in degree.items() if d == 1]
        if isolated:
            alive &= ~isolated
            continue
        if pendants:
            nbr = masks[pendants[0]] & alive
            committed.add(nbr.bit_length() - 1)
            alive &= ~(nbr | 1 << pendants[0])
            continue
        for a in (v for v, d in degree.items() if d == 2):
            u, w = bits(masks[a] & alive)
            if (masks[u] >> w) & 1 and 2 in (degree[u], degree[w]):
                committed |= {w if degree[u] == 2 else u, a}
                alive &= ~(1 << a | 1 << u | 1 << w)
                break
        else:
            return alive, committed


def rounds_reduce_chain(s, chain):
    """Reference: every reduction in turn, whole rounds, until a round changes nothing."""
    alive, committed = s.alive, set(s.committed)
    progressing = True
    while progressing:
        progressing = False
        for name in chain:
            node = Subproblem(s.base, alive, frozenset(committed))
            if name == "neighbor":
                after, more = recount_reduce_neighbor(node)
            else:
                out = reduce_dominance(node)
                after, more = out.reduced.alive, out.reduced.committed - node.committed
            progressing |= after != alive
            alive, committed = after, committed | more
    return alive, frozenset(committed)


CHAINS = [
    chain
    for k in range(len(REDUCTIONS) + 1)
    for chain in itertools.permutations(REDUCTIONS, k)
]


@settings(max_examples=200, deadline=None)
@given(graphs(), st.integers(0, 2**14 - 1))
@example(build_graph(3, [(0, 1), (1, 2), (0, 2)]), 0b111)
@example(build_graph(4, [(0, 1), (1, 2), (2, 3)]), 0b1111)
def test_reduce_chain_hands_on_fresh_degrees_and_matches_a_recount(g, keep):
    """Every chain's result carries the degrees a recount gives, in the same key
    order, is a fixed point of the chain, and removes and commits what the
    recount-every-pass reference does; on a graph and on a subproblem."""
    for s in (Subproblem.root(g), Subproblem(base=g, alive=g.alive & keep)):
        for chain in CHAINS:
            out = reduce_chain(s, chain)
            reduced = out.reduced
            masks, alive = reduced.adjacency_masks, reduced.alive
            fresh = {v: (masks[v] & alive).bit_count() for v in reduced.vertices()}
            assert list(reduced.degrees.items()) == list(fresh.items()), chain
            again = reduce_chain(reduced, chain)
            assert (again.removed_vertices, again.cover_contribution) == (0, 0), chain
            assert again.reduced.alive == alive, chain
            ref_alive, ref_committed = rounds_reduce_chain(s, chain)
            assert (alive, reduced.committed) == (ref_alive, ref_committed), chain
            assert out.removed_vertices == s.n - alive.bit_count(), chain
            assert out.cover_contribution == len(ref_committed - s.committed), chain


@settings(max_examples=300, deadline=None)
@given(graphs(), st.integers(0, 2**14 - 1))
def test_combine_bounds_limit_decides_like_the_full_bound(g, keep):
    sub = Subproblem(base=g, alive=g.alive & keep)
    subsets = [
        frozenset(names)
        for k in range(len(LOWER_METHODS) + 1)
        for names in itertools.combinations(LOWER_METHODS, k)
    ]
    for instance, names in itertools.product((g, sub), subsets):
        full = combine_bounds(instance, names)
        for limit in range(instance.n + 2):
            bounded = combine_bounds(instance, names, limit)
            assert (bounded >= limit) == (full >= limit), (names, limit)
            if bounded >= limit:
                # the first bound to reach the limit ends the call
                assert limit <= bounded <= full, (names, limit)
            else:
                assert 0 <= bounded <= full, (names, limit)


@settings(max_examples=300, deadline=None)
@given(graphs(), st.integers(0, 2**14 - 1))
@example(build_graph(4, [(0, 1), (2, 3)]), 0)
@example(build_graph(5, [(1, 3)]), 0b11111)
@example(build_graph(3, [(0, 1), (1, 2)]), 0b101)
def test_serialize_subproblem_is_its_graph_text(g, keep):
    """A subproblem is written from its masks exactly as its graph would be,
    and the text parses back to that graph: isolated vertices too. An empty mask
    is refused in edge-list form and round-trips in the formats with a header."""
    sub = Subproblem(base=g, alive=g.alive & keep)
    for format in FORMATS:
        if not sub.n and format == "edge_list":
            # an edge list has no header line to hold the empty graph
            for instance in (sub, residual_graph(sub)):
                with pytest.raises(ValueError, match="edge_list"):
                    serialize_graph(instance, format)
            continue
        text = serialize_graph(sub, format)
        assert text == serialize_graph(residual_graph(sub), format)
        assert reparse_by_file_label(text, format) == residual_graph(sub).adjacency


@settings(max_examples=300, deadline=None)
@given(graphs(), st.integers(0, 2**14 - 1), st.integers(0, 2**14 - 1))
@example(build_graph(4, [(0, 1), (2, 3)]), 0, 0)
@example(build_graph(5, [(1, 3)]), 0b11111, 0b00100)
@example(build_graph(6, [(0, 1), (1, 2), (4, 5)]), 0b111010, 0b1010)
def test_qubo_of_subproblem_is_its_graphs(g, keep, assignment):
    """A subproblem's QUBO is its graph's, with the same key order, and an
    assignment decodes to the graph's cover in input-graph ids: for an empty
    mask and isolated vertices too."""
    sub = Subproblem(base=g, alive=g.alive & keep)
    graph, ids = residual_graph(sub), sub.vertices()
    q, reference = build_mvc_qubo(sub), build_mvc_qubo(graph)
    assert q == reference
    assert list(q.quadratic) == list(reference.quadratic) == list(graph.edges())
    x = [assignment >> i & 1 for i in range(sub.n)]
    assert decode_cover(sub, x) == {ids[i] for i in decode_cover(graph, x)}


def position_edges_decode_cover(g, x):
    """``decode_cover`` as it read the edges from ``position_edges``: the reference."""
    masks, alive, ids, degrees = g.adjacency_masks, g.alive, g.vertices(), g.degrees
    cover = sum(1 << v for i, v in enumerate(ids) if x[i])
    for i, j in position_edges(g):
        u, v = ids[i], ids[j]
        if not (cover >> u & 1 or cover >> v & 1):
            cover |= 1 << (u if degrees[u] >= degrees[v] else v)
    for v in reversed(bits(cover)):
        if not masks[v] & alive & ~cover:
            cover ^= 1 << v
    return set(bits(cover))


@settings(max_examples=300, deadline=None)
@given(graphs(), st.integers(0, 2**14 - 1), st.integers(0, 2**14 - 1))
@example(build_graph(3, [(0, 1), (1, 2), (0, 2)]), 0b111, 0)
@example(build_graph(4, [(0, 1), (0, 2), (0, 3), (2, 3)]), 0b1101, 0b100)
def test_decode_cover_matches_the_position_edges_decoder(g, keep, assignment):
    """Walking each vertex's higher alive neighbours repairs the same edges, in
    the same order, as the listing by positions; on a graph and a subproblem."""
    sub = Subproblem(base=g, alive=g.alive & keep)
    for instance in (g, sub):
        x = [assignment >> i & 1 for i in range(instance.n)]
        assert decode_cover(instance, x) == position_edges_decode_cover(instance, x)


@st.composite
def qubos(draw, max_n: int = 12):
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    coeff = st.integers(-3, 3).map(float)
    linear = draw(st.lists(coeff, min_size=n, max_size=n))
    return Qubo(n=n, linear=tuple(linear), quadratic={key: draw(coeff) for key in keys})


@settings(max_examples=300, deadline=None)
@given(qubos(), st.integers(1, 4), st.integers(1, 5))
@example(Qubo(n=5, linear=(1.0, -2.0, 0.0, 3.0, -1.0), quadratic={}), 1, 1)
@example(Qubo(n=3, linear=(-1.0, -1.0, -1.0), quadratic={(0, 1): 2.0, (1, 2): -3.0}), 1, 1)
def test_color_classes_split_every_coupling(q, reads, sweeps):
    """The classes partition the variables and no class holds both ends of a
    term; the anneal built on them returns a feasible, self-consistent answer."""
    classes = color_classes(q)
    assert sorted(v for cls in classes for v in cls) == list(range(q.n))
    color = {v: c for c, cls in enumerate(classes) for v in cls}
    assert all(color[i] != color[j] for i, j in q.quadratic)
    if not q.quadratic:
        assert len(classes) == min(q.n, 1)
    assignment, energy = solve_anneal(q, reads=reads, sweeps=sweeps, seed=reads + sweeps)
    assert assignment.shape == (q.n,) and set(assignment.tolist()) <= {0, 1}
    assert energy == evaluate(q, assignment) >= solve_exhaustive(q)[1]
