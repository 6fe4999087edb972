"""Reference views the solver is tested against, kept apart from the package.

``brute_force_oracle`` is the optimum every solver test compares with,
``half_integral_lp_optimum`` the cover LP's optimum the LP bound is checked
against, ``scan_bounded_exact_leaf_solve`` a hand-written exact search the
solver's own leaf search is checked against on graphs too large for the
oracle, and ``residual_graph`` is a subproblem rebuilt as a standalone
``Graph``, the view that the mask-reading code (``serialize_graph``,
``build_mvc_qubo``, ``decode_cover``, the bounds) must agree with.
``solve_exhaustive`` is a QUBO's ground state by a sweep of every
assignment, the reference the annealer and the QUBO leaf path are checked
against, and ``parse_qubo`` reads ``export_qubo``'s text back, the
reference its round trip is checked against. ``dict_select_vertex``,
``level_scan_coloring`` and ``plain_greedy_clique`` are the split selection,
the colouring bound and the greedy-clique cover read from a recount of every
residual degree
(``residual_degrees``, ``recount_levels``), the views that the solver's
carried degree levels must agree with. None of it runs inside ``solve`` or
``decompose``. So that the oracle can vouch for the solver, this module
imports nothing from ``vertexcover`` but ``vertexcover.graphs``.
"""

from __future__ import annotations

import math
import random
from itertools import product
from typing import Iterable

import numpy as np

from vertexcover.graphs import Graph, bits

ORACLE_CAP = 24
LP_CAP = 9
EXHAUSTIVE_CAP = 30


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    """Subgraph on ``keep``; its vertex i is ``sorted(set(keep))[i]``."""
    kept = sorted(set(keep))
    for v in kept:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} not in graph of size {g.n}")
    index = {orig: new for new, orig in enumerate(kept)}
    return Graph(tuple(
        sum(1 << index[u] for u in bits(g.adjacency[orig]) if u in index)
        for orig in kept
    ))


def residual_degrees(g) -> dict[int, int]:
    """Residual degree of each alive vertex of a Graph or a Subproblem, in
    ascending id order, counted from the masks."""
    masks, alive = g.adjacency, g.alive
    return {v: (masks[v] & alive).bit_count() for v in bits(alive)}


def recount_levels(g) -> dict[int, int]:
    """``residual_degrees`` grouped into the mask of each degree's vertices."""
    levels: dict[int, int] = {}
    for v, d in residual_degrees(g).items():
        levels[d] = levels.get(d, 0) | 1 << v
    return levels


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
    masks = g.adjacency
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


def _energies_for_block(q: Qubo, indices: np.ndarray) -> np.ndarray:
    bits = ((indices[:, None] >> np.arange(q.n)) & 1).astype(np.float64)
    energies = bits @ np.asarray(q.linear) + q.offset
    for (i, j), coeff in q.quadratic.items():
        energies += coeff * bits[:, i] * bits[:, j]
    return energies


def solve_exhaustive(q: Qubo) -> tuple[np.ndarray, float]:
    """Global minimum by sweeping all 2^n assignments.

    Ties go to the assignment with the lowest binary value (variable i is
    bit i). Refuses instances above ``EXHAUSTIVE_CAP`` variables.
    """
    if q.n > EXHAUSTIVE_CAP:
        raise ValueError(
            f"{q.n} variables exceeds the exhaustive cap of {EXHAUSTIVE_CAP}; "
            "use solve_anneal for larger instances"
        )
    if q.n == 0:
        return np.zeros(0, dtype=np.uint8), float(q.offset)
    best_energy = np.inf
    best_index = 0
    block = 1 << 20
    for start in range(0, 1 << q.n, block):
        stop = min(start + block, 1 << q.n)
        indices = np.arange(start, stop, dtype=np.int64)
        energies = _energies_for_block(q, indices)
        k = int(np.argmin(energies))
        if energies[k] < best_energy:
            best_energy = float(energies[k])
            best_index = start + k
    assignment = ((best_index >> np.arange(q.n)) & 1).astype(np.uint8)
    return assignment, best_energy


def _number(field: str, cast, lineno: int):
    """``cast(field)``, refused with the line number when malformed or not finite."""
    try:
        value = cast(field)
    except ValueError:
        raise ValueError(f"line {lineno}: malformed number {field!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"line {lineno}: non-finite value {field!r}")
    return value


def parse_qubo(text: str) -> dict:
    """``export_qubo``'s text read back as the fields of the ``Qubo`` it
    wrote, by keyword, so ``Qubo(**parse_qubo(text))`` rebuilds it.

    A malformed line, a second header, a non-finite number, a repeated term
    or a term count other than the header's raises ``ValueError`` naming its
    line; a count is refused at the header's.
    """
    offset = 0.0
    penalty_a = 2.0
    size_b = 1.0
    n = None
    linear: list[float] = []
    quadratic: dict[tuple[int, int], float] = {}
    seen: set[tuple[int, int]] = set()  # (i, j) of every term, i <= j
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "c":
            if len(fields) >= 3 and fields[1] == "offset":
                offset = _number(fields[2], float, lineno)
            elif len(fields) >= 5 and fields[1] == "A" and fields[3] == "B":
                penalty_a = _number(fields[2], float, lineno)
                size_b = _number(fields[4], float, lineno)
            continue
        if fields[0] == "p":
            if n is not None:
                raise ValueError(f"line {lineno}: second qubo header")
            if len(fields) != 6 or fields[1] != "qubo":
                raise ValueError(f"line {lineno}: malformed qubo header {line!r}")
            _, n, n_linear, n_quadratic = (_number(f, int, lineno) for f in fields[2:])
            if n < 0:
                raise ValueError(f"line {lineno}: negative variable count")
            header, linear = lineno, [0.0] * n
            continue
        if n is None:
            raise ValueError(f"line {lineno}: term before qubo header")
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: malformed term {line!r}")
        i, j = _number(fields[0], int, lineno), _number(fields[1], int, lineno)
        coeff = _number(fields[2], float, lineno)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"line {lineno}: index out of range 0..{n - 1}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValueError(f"line {lineno}: repeated term {key}")
        seen.add(key)
        if i == j:
            linear[i] = coeff
        else:
            quadratic[key] = coeff
    if n is None:
        raise ValueError("missing qubo header line")
    found = (len(seen) - len(quadratic), len(quadratic))
    if (n_linear, n_quadratic) != found:
        raise ValueError(
            f"line {header}: header counts {n_linear} linear and {n_quadratic} quadratic "
            f"terms, found {found[0]} and {found[1]}"
        )
    return {
        "n": n,
        "linear": tuple(linear),
        "quadratic": quadratic,
        "offset": offset,
        "penalty_a": penalty_a,
        "size_b": size_b,
    }


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
    masks = g.adjacency
    independent = 0
    for v in sorted(bits(g.alive), key=residual_degrees(g).__getitem__):
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


def dict_select_vertex(s, kind: str, key: int) -> int:
    """The split vertex of ``select_vertex``'s rule ``kind``, picked from a
    degree dict: the candidates of the lowest, the highest or the median
    degree (that of the vertex at index n // 2 in ascending (degree, id)
    order), or every vertex for ``random``, in ascending id order, and the
    draw among them seeded by ``key``."""
    degrees = residual_degrees(s)
    if kind == "random":
        candidates = list(degrees)
    else:
        if kind == "lowest_degree":
            target = min(degrees.values())
        elif kind == "highest_degree":
            target = max(degrees.values())
        else:
            order = sorted(degrees, key=degrees.__getitem__)
            target = degrees[order[len(order) // 2]]
        candidates = [v for v, d in degrees.items() if d == target]
    if len(candidates) == 1:
        return candidates[0]
    return random.Random(key).choice(candidates)


def _unit_conflicts(masks, classes, units, want) -> int:
    """Disjoint conflicts, up to ``want``, that unit propagation from the
    one-vertex ``units`` finds among the clique ``classes``; each found
    conflict's classes are set aside before the next round."""
    k = 0
    live = list(range(len(classes)))
    while True:
        left, why, stack = classes[:], [1 << i for i in range(len(classes))], units[:]
        conflict = 0
        while stack and not conflict:
            i = stack.pop()
            nbrs = masks[left[i].bit_length() - 1]
            for j in live:
                if left[j] & nbrs:
                    left[j] &= ~nbrs
                    why[j] |= why[i]
                    if left[j].bit_count() <= 1:
                        if not left[j]:
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


def level_scan_coloring(g, limit: int | None = None) -> int:
    """``lb_coloring``'s bound, its degree levels recounted from the masks.

    Each class starts at the lowest uncoloured vertex of the lowest degree
    level, then takes the lowest candidate (a vertex adjacent to all its
    members) of the lowest level holding one, until no candidate is left.
    Colouring stops once the classes of two or more vertices exceed
    ``n - limit``; unit propagation then seeks the conflicts the bound
    still needs.
    """
    masks, by_degree = g.adjacency, recount_levels(g)
    most = g.n if limit is None else g.n - limit
    levels = [by_degree[d] for d in sorted(by_degree)]
    uncolored = g.alive
    classes: list[int] = []
    units: list[int] = []
    pairs = 0
    while uncolored and pairs <= most:
        candidates, members = uncolored, 0
        while candidates:
            found = next(candidates & level for level in levels if candidates & level)
            low = found & -found
            members |= low
            candidates &= masks[low.bit_length() - 1]
        uncolored ^= members
        if members.bit_count() > 1:
            pairs += 1
        else:
            units.append(len(classes))
        classes.append(members)
    bound = g.n - uncolored.bit_count() - len(classes)
    want = len(units) if limit is None else limit - bound
    if pairs > most or want <= 0:
        return bound
    return bound + _unit_conflicts(masks, classes, units, want)


def plain_greedy_clique(g) -> tuple[int, int]:
    """``ub_greedy_clique``'s (cover size, cover mask) by a plain walk over
    every alive vertex in ascending (degree, id) order of recounted degrees: a
    vertex joins the clique when it has no neighbour in it, and the cover is
    every alive vertex left out."""
    masks, degrees = g.adjacency, residual_degrees(g)
    clique = 0
    for v in sorted(degrees, key=lambda v: (degrees[v], v)):
        if not clique & masks[v]:
            clique |= 1 << v
    cover = g.alive & ~clique
    return cover.bit_count(), cover
