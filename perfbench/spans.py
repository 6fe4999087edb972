"""Outside-in tracing: spans around the solver's layer functions.

The tracer swaps each traced function for a wrapper at the module attribute
where callers look it up (``engine.reduce_chain``, ``bounds.lb_coloring``,
...), and restores the originals afterwards. Nothing inside the program is
edited. The run is single-threaded, so the parent of a span is the span open
when it starts.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import defaultdict

# (module, attribute, span name). Span names are ``<module>.<function>``
# after the module that defines the function, whichever module calls it.
TARGETS = (
    ("engine", "reduce_chain", "reductions.reduce_chain"),
    ("engine", "combine_bounds", "bounds.combine_bounds"),
    ("engine", "select_vertex", "splitting.select_vertex"),
    ("engine", "split", "splitting.split"),
    ("engine", "exact_leaf_solve", "engine.exact_leaf_solve"),
    ("engine", "build_mvc_qubo", "qubo.build_mvc_qubo"),
    ("engine", "solve_anneal", "qubo.solve_anneal"),
    ("engine", "decode_cover", "qubo.decode_cover"),
    ("engine", "ub_greedy_clique", "bounds.ub_greedy_clique"),
    ("splitting", "induced_subgraph", "graphs.induced_subgraph"),
    ("reductions", "induced_subgraph", "graphs.induced_subgraph"),
    ("bounds", "lb_coloring", "bounds.lb_coloring"),
    ("bounds", "complement", "graphs.complement"),
    ("bounds", "ub_greedy_clique", "bounds.ub_greedy_clique"),
    ("cli", "decompose_only", "engine.decompose_only"),
    ("cli", "serialize_graph", "graphs.serialize_graph"),
    ("cli", "parse_graph", "graphs.parse_graph"),
)

# Results some layer metrics need, taken from the traced call's arguments
# and return value.
KEEP = {
    "reductions.reduce_chain": lambda args, result: result.removed_vertices,
    "qubo.decode_cover": lambda args, result: (args[0], len(result)),
}

# Layers whose per-call latency is reported as a median and a tail.
LATENCY_LAYERS = ("engine.exact_leaf_solve", "qubo.solve_anneal")


class Tracer:
    """Records spans as ``[name, parent index, start, end]`` in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.kept: dict[str, list] = defaultdict(list)
        self._open: list[int] = []
        self.missing: set[str] = set()

    def wrap(self, fn, name: str):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter
        keep = KEEP.get(name)
        kept = self.kept[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, open_spans[-1] if open_spans else -1, clock(), 0.0]
            open_spans.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_spans.pop()
                record[3] = clock()
            if keep is not None:
                kept.append(keep(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Wrap every target in ``package``'s modules; restore on exit.

        Targets the package no longer has are noted in ``missing``; their
        layers then read zero, and the consistency check still holds the
        counts that matter to the solver's own counters.
        """
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = getattr(package, module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.add(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def take(self) -> tuple[list[list], dict[str, list]]:
        """Hand over the spans and kept results recorded so far, and reset."""
        spans, kept = self.spans, dict(self.kept)
        self.spans, self.kept = [], defaultdict(list)
        return spans, kept


def layer_totals(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, self seconds and per-call durations.

    Self time is a span's duration minus the durations of its children;
    children of one span run one after another, so they never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "durations": []})
    for (name, _parent, start, end), inner in zip(spans, child_time):
        entry = totals[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - inner
        entry["durations"].append(end - start)
    return totals


def tail_percentile(count: int) -> float:
    """Highest standard percentile with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if count * (1 - pct / 100) >= 10:
            return pct
    return 50.0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def write_spans(path, reps: list[list[list]]) -> None:
    """Write every span of every traced repetition as tab-separated lines."""
    with open(path, "w") as out:
        out.write("rep\tindex\tparent\tname\tstart\tend\n")
        for rep, spans in enumerate(reps):
            for index, (name, parent, start, end) in enumerate(spans):
                out.write(f"{rep}\t{index}\t{parent}\t{name}\t{start!r}\t{end!r}\n")
