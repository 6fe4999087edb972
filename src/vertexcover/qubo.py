"""Quadratic binary formulation of minimum vertex cover, and its solvers.

The cover problem becomes: minimize over x in {0,1}^n

    penalty_a * sum_over_edges (1 - x_u)(1 - x_v)  +  size_b * sum_v x_v

With 0 < size_b < penalty_a, leaving any edge uncovered always costs more
than adding a vertex, so minimizers are exactly the minimum covers and the
minimum value is size_b times the cover size. Expanded to coefficient form,
each vertex gets linear weight size_b - penalty_a * deg(v), each edge a
quadratic weight penalty_a, plus the constant penalty_a * |E|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import bits, position_edges

__all__ = [
    "Qubo",
    "build_mvc_qubo",
    "evaluate",
    "solve_anneal",
    "decode_cover",
    "export_qubo",
]

ANNEAL_T_END = 1e-3


@dataclass(frozen=True)
class Qubo:
    """Sparse quadratic binary objective: offset + linear.x + sum quad x_i x_j."""

    n: int
    linear: tuple[float, ...]
    quadratic: dict[tuple[int, int], float]
    offset: float = 0.0
    penalty_a: float = 2.0
    size_b: float = 1.0

    def __post_init__(self):
        if len(self.linear) != self.n:
            raise ValueError("linear coefficient count must equal n")
        for (i, j) in self.quadratic:
            if not (0 <= i < j < self.n):
                raise ValueError(f"quadratic key ({i}, {j}) must satisfy 0 <= i < j < n")


def build_mvc_qubo(g, penalty_a: float = 2.0, size_b: float = 1.0) -> Qubo:
    """Cover objective for a Graph or Subproblem; needs finite 0 < size_b < penalty_a.

    Variable i is vertex ``vertices()[i]``; the keys are ``position_edges(g)``.
    """
    if not 0 < size_b < penalty_a < math.inf:
        raise ValueError(
            "need finite 0 < size_b < penalty_a, "
            f"got size_b={size_b}, penalty_a={penalty_a}"
        )
    edges = position_edges(g)
    masks, alive = g.adjacency, g.alive
    return Qubo(
        n=g.n,
        linear=tuple(
            float(size_b - penalty_a * (masks[v] & alive).bit_count()) for v in g.vertices()
        ),
        quadratic=dict.fromkeys(edges, float(penalty_a)),
        offset=float(penalty_a * len(edges)),
        penalty_a=float(penalty_a),
        size_b=float(size_b),
    )


def evaluate(q: Qubo, x: Sequence[int]) -> float:
    """Objective value at assignment x."""
    if len(x) != q.n:
        raise ValueError(f"assignment length {len(x)} != variable count {q.n}")
    total = q.offset
    for i, xi in enumerate(x):
        if xi:
            total += q.linear[i]
    for (i, j), coeff in q.quadratic.items():
        if x[i] and x[j]:
            total += coeff
    return total


def color_classes(q: Qubo) -> list[list[int]]:
    """Greedy colouring of the coupling graph, in variable-index order.

    Each variable takes the lowest class that holds none of its quadratic
    partners, so no two variables in one class share a term.
    """
    partners: list[set[int]] = [set() for _ in range(q.n)]
    for i, j in q.quadratic:
        partners[i].add(j)
        partners[j].add(i)
    classes: list[list[int]] = []
    for v in range(q.n):
        c = next(c for c, cls in enumerate(classes + [[]]) if partners[v].isdisjoint(cls))
        if c == len(classes):
            classes.append([])
        classes[c].append(v)
    return classes


def solve_anneal(
    q: Qubo,
    reads: int = 100,
    sweeps: int = 100,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """Simulated annealing over ``reads`` independent restarts.

    Each sweep gives every variable one single-bit-flip Metropolis step
    under a geometric temperature schedule from the largest coefficient
    magnitude down to ``ANNEAL_T_END``. Variables in one ``color_classes``
    class share no term, so a whole class steps at once, in every read,
    and the step is still exact. Heuristic: the result is always a
    feasible assignment but not necessarily the global minimum; among the
    best reads the lowest binary value wins. Deterministic for a fixed seed.
    """
    if reads < 1 or sweeps < 1:
        raise ValueError("reads and sweeps must both be at least 1")
    if q.n == 0:
        return np.zeros(0, dtype=np.uint8), float(q.offset)
    rng = np.random.default_rng(seed)
    coeffs = [abs(c) for c in q.linear] + [abs(c) for c in q.quadratic.values()]
    t_start = max(max(coeffs, default=1.0), 1e-3)

    # variables permuted so that each colour class is one contiguous slice
    classes = color_classes(q)
    order = np.concatenate(classes)
    ends = np.cumsum([len(cls) for cls in classes])
    slices = [slice(end - len(cls), end) for cls, end in zip(classes, ends)]
    rank = np.argsort(order)
    couplings = np.zeros((q.n, q.n))
    for (i, j), coeff in q.quadratic.items():
        couplings[rank[i], rank[j]] = couplings[rank[j], rank[i]] = coeff
    linear = np.asarray(q.linear)[order][:, None]

    # x[v, r] is variable v in read r; field[v, r] is the energy change of x[v] 0 -> 1
    x = rng.integers(0, 2, size=(q.n, reads)).astype(np.float64)
    field = linear + couplings @ x
    energies = q.offset + ((linear + field) * x).sum(0) / 2
    best_energy = energies.copy()
    best_x = x.copy()

    ratio = (ANNEAL_T_END / t_start) ** (1.0 / (sweeps - 1)) if sweeps > 1 else 1.0
    temperature = t_start
    for _ in range(sweeps):
        # Metropolis: delta < T * Exp(1) has the probability min(1, exp(-delta / T))
        draw = temperature * rng.standard_exponential((q.n, reads))
        for s in slices:
            direction = 1.0 - 2.0 * x[s]
            delta = direction * field[s]
            flip = delta < draw[s]
            step = direction * flip
            x[s] += step
            field += couplings[:, s] @ step
            energies += (delta * flip).sum(0)
        improved = energies < best_energy
        best_energy[improved] = energies[improved]
        best_x[:, improved] = x[:, improved]
        temperature *= ratio

    minimum = float(best_energy.min())
    best_x = best_x[rank].T
    candidates = [
        best_x[k].astype(np.uint8)
        for k in range(reads)
        if best_energy[k] <= minimum + 1e-12
    ]

    def binary_value(a: np.ndarray) -> int:
        return sum(int(b) << i for i, b in enumerate(a))

    # deterministic tie-break: lowest binary value among the best reads
    assignment = min(candidates, key=binary_value)
    return assignment, evaluate(q, assignment)


def decode_cover(g, x: Sequence[int]) -> set[int]:
    """Set bits as a valid cover of a Graph or Subproblem, in the ids of g.

    Variable i is vertex ``vertices()[i]``. Uncovered edges get their
    higher-degree endpoint added, the lower id on a tie; then any vertex whose
    neighbors are all in the set is dropped, scanning from the highest id down.
    """
    if len(x) != g.n:
        raise ValueError(f"assignment length {len(x)} != vertex count {g.n}")
    masks, alive, ids = g.adjacency, g.alive, g.vertices()
    cover = sum(1 << v for i, v in enumerate(ids) if x[i])
    # edges u < v in the QUBO's key order; only u joining covers another listed v
    for u in ids:
        for v in bits((masks[u] & alive & ~cover) >> u + 1 << u + 1):
            if cover >> u & 1:
                break
            higher = (masks[u] & alive).bit_count() >= (masks[v] & alive).bit_count()
            cover |= 1 << (u if higher else v)
    for v in reversed(bits(cover)):
        if not masks[v] & alive & ~cover:
            cover ^= 1 << v
    return set(bits(cover))


def export_qubo(q: Qubo) -> str:
    """Sparse text form (README, "File formats"); every float is written by
    ``repr``, so the text restores the objective bit-exactly."""
    linear_terms = [(i, c) for i, c in enumerate(q.linear) if c != 0.0]
    quad_terms = sorted(q.quadratic.items())
    lines = [
        f"c offset {q.offset!r}",
        f"c A {q.penalty_a!r} B {q.size_b!r}",
        f"p qubo 0 {q.n} {len(linear_terms)} {len(quad_terms)}",
    ]
    lines.extend(f"{i} {i} {c!r}" for i, c in linear_terms)
    lines.extend(f"{i} {j} {c!r}" for (i, j), c in quad_terms)
    return "\n".join(lines) + "\n"
