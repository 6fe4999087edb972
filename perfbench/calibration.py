"""Host speed calibration: a fixed pure-Python kernel timed during and around
every repetition.

On a shared host a core's speed changes by up to a factor of two within a
second, as other tenants load the hardware it shares, and a 25-second window
can fall mostly in a slow or mostly in a fast phase. The benchmark therefore
times this kernel every ``INTERVAL_S`` seconds while a repetition runs (from a
``SIGALRM`` handler, so the samples fall inside the solve), and in a short
burst before and after it. A repetition's timings are scaled by ``NOMINAL_S``
over the kernel's mean time, after taking out the time the samples took. The
kernel is dict-of-sets graph code like the solver's own traversal, so it slows
in step with it; it is independent of the program under test, so a faster
program still shows as faster.
"""

from __future__ import annotations

import contextlib
import gc
import random
import signal
import statistics
import time

# The kernel's time on an uncontended core of the 2-vCPU Xeon host the
# benchmark was tuned on; calibrated timings read as seconds on that core.
NOMINAL_S = 0.0022
INTERVAL_S = 0.1
BURST = 5


def _kernel_graph(n: int = 64, pairs: int = 600, seed: int = 7) -> dict[int, frozenset]:
    rng = random.Random(seed)
    adj = {v: set() for v in range(n)}
    for _ in range(pairs):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return {v: frozenset(ns) for v, ns in adj.items()}


GRAPH = _kernel_graph()


def kernel() -> int:
    """Greedy max-degree elimination with induced neighbourhoods."""
    total = 0
    adj = {v: set(ns) for v, ns in GRAPH.items()}
    alive = set(adj)
    while alive:
        v = max(alive, key=lambda u: len(adj[u] & alive))
        total += len(adj[v] & alive)
        alive.discard(v)
        sub = {u: adj[u] & alive for u in alive if u in adj[v]}
        total += sum(map(len, sub.values()))
    return total


def timed_kernel() -> float:
    """One kernel run, in seconds, with the cyclic collector held off.

    A sample interrupts the workload, so a collection its allocations
    triggered would scan the workload's heap and be charged to the kernel.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def burst() -> float:
    """Median time of ``BURST`` kernel runs, in seconds."""
    return statistics.median(timed_kernel() for _ in range(BURST))


def speed(kernel_times, sampled_s: float = 0.0, wall_s: float = 0.0) -> float:
    """Factor from measured to calibrated seconds for one timed span.

    ``kernel_times`` are kernel timings made during and around the span;
    ``sampled_s`` of its ``wall_s`` went to the samples taken inside it, and
    that share is taken out.
    """
    share = sampled_s / wall_s if wall_s > 0 else 0.0
    return (1 - share) * NOMINAL_S / statistics.fmean(kernel_times)


class Sampler:
    """Times the kernel every ``INTERVAL_S`` of wall time while active."""

    def __init__(self):
        self.samples: list[float] = []
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:  # a signal that arrives while a sample runs is dropped
            return
        self._busy = True
        try:
            self.samples.append(timed_kernel())
        finally:
            self._busy = False

    @contextlib.contextmanager
    def active(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def take(self) -> list[float]:
        samples, self.samples = self.samples, []
        return samples
