"""Reference views the solver is tested against, kept apart from the package.

``brute_force_oracle`` is the optimum every solver test compares with,
``half_integral_lp_optimum`` the cover LP's optimum the LP bound is checked
against, ``scan_bounded_exact_leaf_solve`` a hand-written exact search the
solver's own leaf search is checked against on graphs too large for the
oracle, and ``residual_graph`` is a subproblem rebuilt as a standalone
``Graph``, the view that the mask-reading code (``serialize_graph``,
``build_mvc_qubo``, ``decode_cover``, the bounds) must agree with. None of
it runs inside ``solve`` or ``decompose``. So that the oracle can vouch for
the solver, this module imports nothing from ``vertexcover`` but
``vertexcover.graphs``.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable

from vertexcover.graphs import Graph, bits

ORACLE_CAP = 24
LP_CAP = 9


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    """Subgraph on ``keep``; its vertex i is ``sorted(set(keep))[i]``."""
    kept = sorted(set(keep))
    for v in kept:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} not in graph of size {g.n}")
    index = {orig: new for new, orig in enumerate(kept)}
    adj = tuple(
        frozenset(index[u] for u in g.adjacency[orig] if u in index)
        for orig in kept
    )
    return Graph(adj)


def residual_graph(s) -> Graph:
    """A subproblem's residual graph, renumbered to 0..n-1 in ascending id order.

    Vertex i is ``s.vertices()[i]``, the numbering the subproblem's hand-off
    (leaf files, QUBO variables) uses.
    """
    return induced_subgraph(s.base, s.vertices())


def brute_force_oracle(g: Graph) -> int:
    """Minimum cover size by enumerating vertex subsets in increasing cardinality.

    Deliberately a separate code path from the solvers so it can vouch for
    them. Enumeration starts at a counting lower bound (greedy matching and
    greedy clique partition), which skips only levels that cannot contain a
    cover.
    """
    n = g.n
    if n > ORACLE_CAP:
        raise ValueError(f"oracle capped at {ORACLE_CAP} vertices, got {n}")
    if g.m == 0:
        return 0
    masks = g.adjacency_masks
    full = (1 << n) - 1

    matching = 0
    taken = 0
    for u, v in g.edges():
        if not (taken >> u) & 1 and not (taken >> v) & 1:
            taken |= (1 << u) | (1 << v)
            matching += 1

    unused = full
    cliques = 0
    while unused:
        v = (unused & -unused).bit_length() - 1
        unused &= ~(1 << v)
        cand = masks[v] & unused
        while cand:
            w = (cand & -cand).bit_length() - 1
            unused &= ~(1 << w)
            cand &= masks[w] & unused
        cliques += 1

    def complement_independent(subset: int) -> bool:
        outside = full ^ subset
        scan = outside
        while scan:
            v = (scan & -scan).bit_length() - 1
            scan &= scan - 1
            if masks[v] & outside:
                return False
        return True

    for k in range(max(matching, n - cliques, 1), n + 1):
        subset = (1 << k) - 1
        while subset <= full:
            if complement_independent(subset):
                return k
            low = subset & -subset
            ripple = subset + low
            subset = (((ripple ^ subset) >> 2) // low) | ripple
    return n


def half_integral_lp_optimum(g: Graph) -> float:
    """Optimum of the cover LP (min sum x, x_u + x_v >= 1 on every edge, x >= 0).

    The LP has a half-integral optimum (Nemhauser & Trotter 1975), so every
    x in {0, 1/2, 1}^n is enumerated, as y = 2x in {0, 1, 2}^n.
    """
    n = g.n
    if n > LP_CAP:
        raise ValueError(f"LP enumeration capped at {LP_CAP} vertices, got {n}")
    edges = list(g.edges())
    best = 2 * n
    for y in product(range(3), repeat=n):
        if sum(y) < best and all(y[u] + y[v] >= 2 for u, v in edges):
            best = sum(y)
    return best / 2


def greedy_clique_partition_bound(masks, alive: int) -> int:
    """Alive vertices less the cliques of a greedy clique partition.

    Each unused vertex, in ascending id order, starts a clique that takes,
    in ascending id order, every unused vertex adjacent to all its members.
    A cover holds all but at most one vertex of each clique.
    """
    bound = 0
    while alive:
        low = alive & -alive
        alive ^= low
        candidates = masks[low.bit_length() - 1] & alive
        while candidates:
            low = candidates & -candidates
            alive ^= low
            candidates &= masks[low.bit_length() - 1]
            bound += 1
    return bound


def scan_bounded_exact_leaf_solve(g, limit=None):
    """Exact minimum cover of a Graph or a Subproblem, in ids of what it was
    given; with a ``limit``, ``None`` when no cover is smaller than it.

    Branches at the lowest-id vertex of highest degree, its closed
    neighbourhood out first. Pendant vertices are resolved without
    branching, and each branch that survives them is bounded by
    ``greedy_clique_partition_bound``. The search starts from the cover
    outside a greedy maximal independent set, taken in ascending (degree, id)
    order, or from ``limit`` when that is no larger.
    """
    if limit is not None and limit <= 0:
        return None
    if g.n == 0:
        return set()
    masks = g.adjacency_masks
    independent = 0
    for v in sorted(bits(g.alive), key=g.degrees.__getitem__):
        if not independent & masks[v]:
            independent |= 1 << v
    best_cover = bits(g.alive & ~independent)
    best_size = len(best_cover)
    if limit is not None and limit <= best_size:
        best_size, best_cover = limit, None
    stack = [(g.alive, 0)]  # (alive vertices, chosen cover vertices)
    while stack:
        alive, chosen = stack.pop()
        count = chosen.bit_count()
        while count < best_size:
            max_deg, branch, pendant = 0, -1, -1
            for v in bits(alive):
                d = (masks[v] & alive).bit_count()
                if d == 1 and pendant < 0:
                    pendant = v
                if d > max_deg:
                    max_deg, branch = d, v
            if pendant < 0:
                break
            nb = masks[pendant] & alive
            chosen |= nb
            count += 1
            alive &= ~(nb | (1 << pendant))
        if count >= best_size:
            continue
        if branch < 0:
            best_size, best_cover = count, bits(chosen)
            continue
        if count + greedy_clique_partition_bound(masks, alive) >= best_size:
            continue
        nbrs = masks[branch] & alive
        stack.append((alive & ~(1 << branch), chosen | (1 << branch)))
        stack.append((alive & ~(nbrs | (1 << branch)), chosen | nbrs))
    return None if best_cover is None else set(best_cover)
