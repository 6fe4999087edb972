"""Lower and upper bounds on the minimum vertex cover size of a graph.

Every lower bound is at most the optimum on every input, and every bound is
a deterministic function of the graph. ``combine_bounds`` runs the named
lower bounds cheapest first (colouring, LP, spectral) and stops at the first
that reaches its ``limit``. The default set is the colouring bound, the
stronger on dense residual graphs, and the LP bound, on sparse ones. The
colouring bound is a clique partition tightened by unit propagation over
its classes, as in MaxSAT-based clique search.

Every bound takes a Graph or a Subproblem alike: it reads only
``adjacency_masks``, the ``alive`` vertex mask, ``vertices()``, ``degrees``
and ``n``, and any vertex ids it returns are those of what it was given. A
subproblem's complement neighbourhood of v is ``alive & ~masks[v]`` less v
itself, so no complement graph is built, and no bound builds a Graph.

Both upper bounds come with a witness cover that attains them. The solver
offers each node's ``greedy_clique`` cover with ``clique_upper_bound`` set.
"""

from __future__ import annotations

import random

import numpy as np

from .graphs import Graph, bits
from .splitting import Subproblem

__all__ = [
    "LOWER_METHODS",
    "lb_lp",
    "lb_spectral",
    "lb_coloring",
    "ub_greedy_clique",
    "ub_local_search",
    "combine_bounds",
]

LOWER_METHODS = ("coloring", "lp", "spectral")  # cheapest first


def lb_lp(g, limit: int | None = None) -> int:
    """The cover LP's optimum, rounded up: half a maximum matching of the
    bipartite double cover (Nemhauser & Trotter 1975), where the left copy
    of each end of an edge is joined to the right copy of the other.

    Left copies, in ascending (degree, id) order, first take their lowest
    free right neighbour; each one left over is then tried once for an
    augmenting path (Kuhn), searched on an explicit stack. With a ``limit``,
    nothing is searched when ``2 * limit - 1`` exceeds n, and the search
    stops once the matching plus the left copies still to try falls below
    it: the result reaches ``limit`` exactly when the full bound does, and
    then equals it.
    """
    need = 0 if limit is None else 2 * limit - 1  # matching size that reaches limit
    if need > g.n:
        return 0
    masks, alive = g.adjacency_masks, g.alive
    left_of: dict[int, int] = {}  # matched right copy -> its left copy
    right_of: dict[int, int] = {}
    free = alive  # right copies without a mate
    untried = []
    for u in sorted(bits(alive), key=g.degrees.__getitem__):
        takes = masks[u] & free
        if takes:
            r = (takes & -takes).bit_length() - 1
            free ^= 1 << r
            left_of[r], right_of[u] = u, r
        elif masks[u] & alive:
            untried.append(u)
    for tried, root in enumerate(untried):
        if len(right_of) + len(untried) - tried < need:
            break
        reach: dict[int, int] = {}  # right copy -> the left copy it was reached from
        seen, stack = 0, [root]  # right copies reached, left copies to search
        while stack:
            x = stack.pop()
            nbrs = masks[x] & alive & ~seen
            end = nbrs & free
            if end:
                r = (end & -end).bit_length() - 1
                free ^= 1 << r
                while True:  # flip the alternating path back to the root
                    before = right_of.get(x)
                    left_of[r], right_of[x] = x, r
                    if before is None:
                        break
                    r, x = before, reach[before]
                break
            seen |= nbrs
            for r in bits(nbrs):
                reach[r] = x
                stack.append(left_of[r])
    return (len(right_of) + 1) // 2


def lb_spectral(g) -> int:
    """Eigenvalue inertia bound: independent sets have at most n0 + min(n+, n-) vertices.

    The adjacency matrix lists the alive vertices in ascending id order.
    """
    masks, alive = g.adjacency_masks, g.alive
    index = {v: i for i, v in enumerate(g.vertices())}
    rows, cols = [], []
    for v, i in index.items():
        nbrs = masks[v] & alive
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            rows.append(i)
            cols.append(index[low.bit_length() - 1])
    if not rows:
        return 0
    n = len(index)
    a = np.zeros((n, n))
    a[rows, cols] = 1.0
    try:
        eigs = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError:
        return 0  # degraded: fall back to the trivial bound
    tol = 1e-8 * float(np.max(np.abs(eigs)))
    n_zero = int(np.sum(np.abs(eigs) <= tol))
    n_pos = int(np.sum(eigs > tol))
    n_neg = n - n_zero - n_pos
    return max(0, n - (n_zero + min(n_pos, n_neg)))


def _disjoint_conflicts(masks, classes, units, want) -> int:
    """The number of disjoint conflicts, up to ``want``, that unit propagation
    finds among the clique ``classes``; ``units`` lists the one-vertex ones.

    Each round starts from the classes not yet set aside. A unit, the latest
    first, takes its vertex, which deletes its neighbours from every other
    class; a class left with one vertex becomes a unit in turn. ``why[j]`` is
    class j with the reasons of every unit that shrank it. The first class
    left empty is a conflict: its reasons are set aside and the next round
    begins. A round with no conflict ends the search.
    """
    k = 0
    live = list(range(len(classes)))
    ones = [1 << i for i in live]
    while True:
        left, why, stack = classes[:], ones[:], units[:]
        conflict = 0
        while stack and not conflict:
            i = stack.pop()
            nbrs = masks[left[i].bit_length() - 1]
            for j in live:
                if left[j] & nbrs:
                    rest = left[j] = left[j] & ~nbrs
                    why[j] |= why[i]
                    if not rest & (rest - 1):
                        if not rest:
                            conflict = why[j]
                            break
                        stack.append(j)
        if not conflict:
            return k
        k += 1
        if k == want:
            return k
        live = [i for i in live if not conflict >> i & 1]
        units = [i for i in units if not conflict >> i & 1]


def lb_coloring(g, limit: int | None = None) -> int:
    """n minus a greedy proper coloring of the complement, plus the disjoint
    conflicts unit propagation finds among its classes (Li & Quan 2010).

    A color class of the complement is a clique of g, so an independent set
    takes at most one vertex from each, and the class count bounds the
    independence number from above. Classes are built one at a time in
    ascending (degree, id) order, largest complement degree first: a class
    starts at the first uncolored vertex and takes each later one adjacent to
    all its members, found as the lowest id in the lowest degree level
    holding one. A class only grows, so a vertex it skips can never join it
    later: these are first-fit's classes in that order.

    Unit propagation (``_disjoint_conflicts``) starts from the single-vertex
    classes. No independent set meets every class of a conflict, so k
    disjoint conflicts give the bound ``n - classes + k``. Each conflict holds
    a single-vertex class, so the bound is at most n less the classes of two
    or more vertices. With a ``limit``, coloring stops once those exceed
    ``n - limit``, and the result is the vertices of the completed classes
    less their number; propagation stops once the bound reaches ``limit``.
    Either way the result reaches ``limit`` exactly when the full bound does,
    and then lies between the two; below it, it is at most the full bound.
    """
    masks, degrees = g.adjacency_masks, g.degrees
    most = g.n if limit is None else g.n - limit  # classes of 2+ it can afford
    by_degree: dict[int, int] = {}
    for v in g.vertices():
        by_degree[degrees[v]] = by_degree.get(degrees[v], 0) | 1 << v
    levels = [by_degree[d] for d in sorted(by_degree)]
    uncolored = g.alive
    classes: list[int] = []
    units: list[int] = []  # single-vertex classes
    pairs = first = 0  # classes of two or more vertices
    while uncolored and pairs <= most:
        while not uncolored & levels[first]:
            first += 1
        candidates, level, members = uncolored, first, 0
        while candidates:
            found = candidates & levels[level]
            while not found:
                level += 1
                found = candidates & levels[level]
            low = found & -found
            members |= low
            candidates &= masks[low.bit_length() - 1]
        uncolored ^= members
        if members & (members - 1):
            pairs += 1
        else:
            units.append(len(classes))
        classes.append(members)
    bound = g.n - uncolored.bit_count() - len(classes)
    want = len(units) if limit is None else limit - bound  # conflicts to seek
    if pairs > most or want <= 0:
        return bound
    return bound + _disjoint_conflicts(masks, classes, units, want)


def ub_greedy_clique(g) -> tuple[int, frozenset[int]]:
    """Cover from a greedy maximal clique of the complement.

    The clique is an independent set of g, so everything outside it is a
    vertex cover. Vertices join in ascending (degree, id) order when they
    have no neighbour in the clique. Returns (cover size, cover).
    """
    masks = g.adjacency_masks
    clique = 0  # bitmask
    for v in sorted(g.vertices(), key=g.degrees.__getitem__):
        if not clique & masks[v]:
            clique |= 1 << v
    cover = frozenset(bits(g.alive & ~clique))
    return len(cover), cover


def _lowest_swap(masks, indep: int, tight: int) -> int:
    """Bits of the (1,2)-swap at the lowest x in ``indep`` with two non-adjacent
    ``tight`` neighbours, the lowest such pair u < w; 0 when none applies."""
    while indep:
        low = indep & -indep
        indep ^= low
        candidates = masks[low.bit_length() - 1] & tight
        if candidates & (candidates - 1):  # at least two
            rest = candidates
            while rest:
                u = rest & -rest
                rest ^= u
                partners = candidates & ~masks[u.bit_length() - 1] & ~u
                if partners:
                    return low | u | (partners & -partners)
    return 0


def ub_local_search(g, seed: int) -> tuple[int, frozenset[int]]:
    """Cover from an iterated (1,2)-swap search (Andrade, Resende & Werneck 2012).

    From the set ``ub_greedy_clique``'s cover leaves, a vertex with no
    independent neighbour joins, lowest first, else ``_lowest_swap`` drops x
    for u and w whose only independent neighbour is x. Then 2n rounds each
    force in a vertex drawn by ``random.Random(seed)`` and search again; a
    result no smaller is kept, and only a larger one replaces the best.
    """
    masks, alive = g.adjacency_masks, g.alive

    def local_optimum(indep: int) -> int:
        while True:
            one = two = 0  # vertices with at least one, two independent neighbours
            join, indep = indep or alive & -alive, 0  # an empty set: its first free vertex
            while join:  # indep again, then each free vertex, lowest first
                low = join & -join
                join ^= low
                indep |= low
                two |= one & masks[low.bit_length() - 1]
                one |= masks[low.bit_length() - 1]
                if not join:
                    join = alive & ~(indep | one)
                    join &= -join
            move = _lowest_swap(masks, indep, alive & one & ~two)
            if not move:
                return indep
            indep ^= move

    best = current = local_optimum(alive & ~sum(1 << v for v in ub_greedy_clique(g)[1]))
    rng = random.Random(seed)
    for _ in range(2 * g.n if current != alive else 0):
        outside = alive & ~current
        for _ in range(rng.randrange(outside.bit_count())):  # rng.choice(bits(outside))'s draw
            outside &= outside - 1
        v = (outside & -outside).bit_length() - 1
        trial = local_optimum((current & ~masks[v]) | 1 << v)
        current = max(trial, current, key=int.bit_count)  # the trial on a tie
        best = max(best, current, key=int.bit_count)
    cover = frozenset(bits(alive & ~best))
    return len(cover), cover


def combine_bounds(g: Graph | Subproblem, names, limit: int | None = None) -> int:
    """Best of the named lower bounds (``LOWER_METHODS``), or 0 when none is named.

    With a ``limit`` they run cheapest first, and the first to reach it ends
    the call: the result reaches ``limit`` exactly when the full best does,
    and then lies between the two; below it, it is at most the full best.
    """
    best = lb_coloring(g, limit) if "coloring" in names else 0
    # lb_lp reaches no limit above (n + 1) / 2; skip the call, not just its work
    if "lp" in names and (limit is None or best < limit and 2 * limit - 1 <= g.n):
        best = max(best, lb_lp(g, limit))
    if "spectral" in names and (limit is None or best < limit):
        best = max(best, lb_spectral(g))
    return best
