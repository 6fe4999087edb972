"""Property tests: random small graphs and solver settings against the oracle."""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from vertexcover import (
    FORMATS,
    LOWER_METHODS,
    SELECTION_KINDS,
    SolveConfig,
    Subproblem,
    brute_force_oracle,
    build_graph,
    combine_bounds,
    decompose_only,
    exact_leaf_solve,
    is_vertex_cover,
    lb_coloring,
    serialize_graph,
    solve,
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
@given(graphs(), configs)
def test_decompose_only_offline_completion_matches_oracle(g, cfg):
    """Each leaf completes to a cover; the best completion, or the incumbent, is optimal."""
    dec = decompose_only(g, cfg)
    sizes = [dec.incumbent_size]
    for leaf in dec.leaves:
        ids = leaf.vertices()
        assert not leaf.committed & set(ids)
        completion = leaf.committed | {ids[v] for v in exact_leaf_solve(leaf.graph)}
        assert is_vertex_cover(g, completion)
        sizes.append(len(leaf.committed) + brute_force_oracle(leaf.graph))
    assert is_vertex_cover(g, dec.incumbent_cover)
    assert min(sizes) == brute_force_oracle(g)


@settings(max_examples=300, deadline=None)
@given(graphs(), st.integers(0, 2**14 - 1))
def test_exact_leaf_solve_cutoff_matches_oracle(g, keep):
    """With a cutoff the leaf solver returns None exactly when no smaller cover exists,
    and otherwise the cover it returns without one; on a graph and on a subproblem."""
    sub = Subproblem(base=g, alive=g.alive & keep)
    for instance, optimum in ((g, brute_force_oracle(g)), (sub, brute_force_oracle(sub.graph))):
        unbounded = exact_leaf_solve(instance)
        for limit in range(instance.n + 2):
            bounded = exact_leaf_solve(instance, limit)
            if optimum >= limit:
                assert bounded is None
            else:
                assert bounded == unbounded


@settings(max_examples=300, deadline=None)
@given(graphs(), st.integers(0, 2**14 - 1))
def test_lb_coloring_limit_decides_like_the_full_bound(g, keep):
    """With a limit the bound reaches it exactly when the full bound does, and is
    then the full bound; below it, it stays a safe bound. On a graph and a subproblem."""
    sub = Subproblem(base=g, alive=g.alive & keep)
    for instance in (g, sub):
        full = lb_coloring(instance)
        for limit in range(instance.n + 2):
            bounded = lb_coloring(instance, limit)
            assert (bounded >= limit) == (full >= limit)
            if bounded >= limit:
                assert bounded == full
            else:
                assert 0 <= bounded <= full


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
                assert bounded == full, (names, limit)
            else:
                assert 0 <= bounded <= full, (names, limit)


@settings(max_examples=300, deadline=None)
@given(graphs(), st.integers(0, 2**14 - 1))
@example(build_graph(4, [(0, 1), (2, 3)]), 0)
@example(build_graph(5, [(1, 3)]), 0b11111)
@example(build_graph(3, [(0, 1), (1, 2)]), 0b101)
def test_serialize_subproblem_is_its_graph_text(g, keep):
    """A subproblem is written from its masks exactly as its graph would be,
    and the text parses back to that graph: empty masks and isolated vertices too."""
    sub = Subproblem(base=g, alive=g.alive & keep)
    for format in FORMATS:
        text = serialize_graph(sub, format)
        assert text == serialize_graph(sub.graph, format)
        # an edge list has no header line, so the empty graph's text is blank
        # and the parser refuses it as empty input
        if sub.n or format != "edge_list":
            assert reparse_by_file_label(text, format) == sub.graph.adjacency
