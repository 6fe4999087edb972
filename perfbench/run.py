#!/usr/bin/env python3
"""Run one benchmark workload for a fixed time and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload dense_leaf --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans recorded around the solver's layer functions. The last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the full report (quartiles, sample counts, failures,
environment stamp), also written to ``.perfbench/``. See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibration
import spans as tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPS = 7
SUBMODULES = ("graphs", "splitting", "reductions", "bounds", "qubo", "engine", "cli")
# Layers reported as call count and self time, by span name.
COUNTED_LAYERS = (
    "graphs.induced_subgraph",
    "graphs.complement",
    "graphs.serialize_graph",
    "splitting.split",
    "splitting.select_vertex",
    "reductions.reduce_chain",
    "bounds.combine_bounds",
    "bounds.lb_coloring",
    "bounds.ub_greedy_clique",
    "qubo.solve_anneal",
    "qubo.build_mvc_qubo",
    "engine.exact_leaf_solve",
)
# Layers reported by self time alone.
TIMED_LAYERS = ("graphs.parse_graph", "qubo.decode_cover")
# Layers that together make up a leaf solve; the solver's leaf time is theirs.
LEAF_LAYERS = (
    "engine.exact_leaf_solve", "qubo.build_mvc_qubo", "qubo.solve_anneal", "qubo.decode_cover"
)


class MissingProgram(RuntimeError):
    """The checkout holds no vertexcover sources to benchmark."""


def import_package():
    """Import vertexcover afresh from this checkout's ``src``, never elsewhere."""
    src = ROOT / "src"
    if not (src / "vertexcover" / "__init__.py").is_file():
        raise MissingProgram(f"no vertexcover package under {src}")
    for name in [m for m in sys.modules if m.split(".")[0] == "vertexcover"]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    package = importlib.import_module("vertexcover")
    for sub in SUBMODULES:
        importlib.import_module(f"vertexcover.{sub}")
    if Path(package.__file__).resolve().parent != src / "vertexcover":
        raise MissingProgram(f"vertexcover imported from {package.__file__}, not {src}")
    return package


def set_up(workload, seed, references, workdir):
    """Import, generate inputs, reference sizes and files, SETUP_REPS times.

    Returns the inputs and, per set-up, its measured and calibrated seconds.
    """
    raw, calibrated = [], []
    before = calibration.burst()
    for _ in range(SETUP_REPS):
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        inputs = wl.build_inputs(import_package(), workload, seed, references, workdir)
        raw.append(time.perf_counter() - t0)
        after = calibration.burst()
        calibrated.append(raw[-1] * calibration.speed([before, after]))
        before = after
    return inputs, raw, calibrated


def summary(values):
    """Median, quartiles and sample count of one metric."""
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}


def traced_rep(inputs, tracer):
    """One repetition with every layer wrapped; the entry call is the root span."""
    vc = inputs.vc
    if inputs.workload.handoff:
        root = tracer.wrap(vc.cli.main, "cli.decompose")
    else:
        root = tracer.wrap(vc.engine.solve, "engine.solve")
    with tracer.installed(vc):
        rep = wl.run_rep(inputs, call=root)
    return rep, *tracer.take()


def layer_values(inputs, rep, totals, kept):
    """Per-layer metrics of one traced repetition, plus its consistency check."""

    def calls(name):
        return totals[name]["calls"] if name in totals else 0

    def self_s(name):
        return totals[name]["self_s"] if name in totals else 0.0

    values = {}
    for name in COUNTED_LAYERS:
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.self_s"] = self_s(name)
    for name in TIMED_LAYERS:
        values[f"{name}.self_s"] = self_s(name)
    values["engine.traversal.self_s"] = self_s("engine.solve") + self_s("engine.decompose_only")
    values["cli.decompose.self_s"] = self_s("cli.decompose")
    values["cli.bytes_written"] = rep.bytes_written
    removed = kept.get("reductions.reduce_chain", [])
    values["reductions.removed_vertices"] = sum(removed)
    values["reductions.hit_ratio"] = (
        sum(1 for r in removed if r) / len(removed) if removed else 0.0
    )
    bounded = calls("bounds.combine_bounds")
    values["bounds.prune_ratio"] = rep.subproblems_pruned / bounded if bounded else 0.0

    if inputs.workload.handoff:
        leaf_layer = "graphs.serialize_graph"
    elif inputs.config.leaf_solver == "exact":
        leaf_layer = "engine.exact_leaf_solve"
    else:
        leaf_layer = "qubo.solve_anneal"
    checks = [
        ("reductions.reduce_chain.calls", calls("reductions.reduce_chain"),
         "subproblems_generated", rep.subproblems_generated),
        (f"{leaf_layer}.calls", calls(leaf_layer), "leaf_count", rep.leaf_count),
    ]
    problems = [
        f"trace mismatch: {a} = {x} but {b} = {y}" for a, x, b, y in checks if x != y
    ]
    # The solver times its own leaf solves (and, for the hand-off, its
    # traversal); the spans of the layers that do that work must cover it.
    if inputs.workload.handoff:
        timed, solver_label, solver_s = (
            ("engine.decompose_only",), "preprocessing_s", rep.preprocessing_s
        )
    else:
        timed, solver_label, solver_s = (
            LEAF_LAYERS, "wall_s - preprocessing_s", rep.wall_s - rep.preprocessing_s
        )
    spanned = sum(sum(totals[name]["durations"]) for name in timed if name in totals)
    if abs(spanned - solver_s) > 0.01 * rep.wall_s + 0.002:
        problems.append(
            f"trace mismatch: spans of {', '.join(timed)} last {spanned:.6f} s "
            f"but the solver's {solver_label} is {solver_s:.6f} s"
        )
    return values, problems


def anneal_matches(vc, kept_decodes):
    """Anneal leaves whose decoded cover is as small as the exact leaf optimum."""
    return sum(
        1 for graph, size in kept_decodes
        if size == len(vc.engine.exact_leaf_solve(graph))
    )


@dataclass
class Measurement:
    """Repetitions of one run, untraced and traced, with what the trace kept."""

    plain: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    layer_values: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    latencies: dict = field(default_factory=dict)
    decodes: list = field(default_factory=list)
    tracer: tracing.Tracer = field(default_factory=tracing.Tracer)
    samples_per_rep: list = field(default_factory=list)
    sampled_share: list = field(default_factory=list)


def measure(inputs, seconds, traced) -> Measurement:
    """Repeat the workload until ``seconds`` have passed.

    Traced runs alternate untraced and traced repetitions, so both see the
    same machine conditions and their ratio is the tracing overhead. Each
    repetition's ``speed`` comes from calibration bursts before and after it
    and, for untraced ones, from kernel samples taken while it runs; traced
    repetitions are not sampled, so no sample lands in a layer's span.
    """
    m = Measurement()
    sampler = calibration.Sampler()
    start = time.perf_counter()
    before = calibration.burst()
    while True:
        gc.collect()
        samples = []
        if traced and len(m.traced) < len(m.plain):
            rep, spans, kept = traced_rep(inputs, m.tracer)
            totals = tracing.layer_totals(spans)
            values, problems = layer_values(inputs, rep, totals, kept)
            rep.failures.extend(problems)
            m.traced.append(rep)
            m.layer_values.append(values)
            m.spans.append(spans)
            m.decodes.extend(kept.get("qubo.decode_cover", []))
            for name in tracing.LATENCY_LAYERS:
                if name in totals:
                    m.latencies.setdefault(name, []).extend(totals[name]["durations"])
        else:
            with sampler.active():
                rep = wl.run_rep(inputs)
            samples = sampler.take()
            m.plain.append(rep)
            m.samples_per_rep.append(len(samples))
            m.sampled_share.append(sum(samples) / rep.wall_s if rep.wall_s else 0.0)
        after = calibration.burst()
        rep.speed = calibration.speed([before, *samples, after], sum(samples), rep.wall_s)
        before = after
        done = m.plain and (m.traced or not traced)
        if done and time.perf_counter() - start >= seconds:
            return m


def end_to_end_values(m: Measurement, setup_raw, setup_calibrated, report) -> dict:
    """Medians over repetitions; timings in calibrated seconds."""
    samples = {
        "wall_s": [r.wall_s * r.speed for r in m.plain],
        "preprocessing_s": [r.preprocessing_s * r.speed for r in m.plain],
        "modeled_solution_s": [r.modeled_solution_s for r in m.plain],
        "leaf_count": [r.leaf_count for r in m.plain],
        "subproblems_generated": [r.subproblems_generated for r in m.plain],
        "cover_ratio": [r.cover_ratio for r in m.plain],
        "setup_s": setup_calibrated,
    }
    measured = {
        "wall_s": [r.wall_s for r in m.plain],
        "preprocessing_s": [r.preprocessing_s for r in m.plain],
        "setup_s": setup_raw,
    }
    report["distribution"] = {name: summary(v) for name, v in samples.items()}
    report["measured_distribution"] = {name: summary(v) for name, v in measured.items()}
    report["calibration"] = {
        "nominal_s": calibration.NOMINAL_S,
        "interval_s": calibration.INTERVAL_S,
        "speed": summary(r.speed for r in m.plain),
        "samples_per_rep": summary(m.samples_per_rep),
        "sampled_share": summary(m.sampled_share),
    }
    report["wall_s_samples"] = samples["wall_s"]
    report["speed_samples"] = [r.speed for r in m.plain]
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values


def per_layer_values(m: Measurement, inputs, report) -> dict:
    values = {
        name: statistics.median(rep[name] for rep in m.layer_values)
        for name in m.layer_values[0]
    }
    for name in tracing.LATENCY_LAYERS:
        durations = m.latencies.get(name, [])
        pct = tracing.tail_percentile(len(durations))
        values[f"{name}.p50_ms"] = 1000 * tracing.percentile(durations, 50)
        values[f"{name}.tail_ms"] = 1000 * tracing.percentile(durations, pct)
        report[f"{name}.latency"] = {"samples": len(durations), "tail_percentile": pct}
    matches = anneal_matches(inputs.vc, m.decodes)
    values["qubo.anneal_optimal_ratio"] = matches / len(m.decodes) if m.decodes else 0.0
    report["anneal_leaves_checked"] = len(m.decodes)
    plain_wall = statistics.median(r.wall_s * r.speed for r in m.plain)
    traced_wall = statistics.median(r.wall_s * r.speed for r in m.traced)
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1
    report["trace_reps"] = len(m.traced)
    report["untraced_targets"] = sorted(m.tracer.missing)
    trace_file = OUT_DIR / f"spans-{inputs.workload.name}-seed{inputs.seed}.tsv"
    tracing.write_spans(trace_file, m.spans)
    report["trace_file"] = str(trace_file.relative_to(ROOT))
    return values


def environment(inputs):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "workload": inputs.workload.name,
        "seed": inputs.seed,
        "graphs": list(inputs.workload.graphs),
        "solve_config": repr(inputs.config),
        "cli_args": inputs.cli_args,
    }


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def benchmark(workload_name, seed, seconds, trace, tiny=False, references=None):
    """Set up, measure and check one workload; return (report, result)."""
    spec = json.loads(BENCHMARK_FILE.read_text())
    workload = (wl.TINY_WORKLOADS if tiny else wl.WORKLOADS)[workload_name]
    references = wl.load_references() if references is None else references
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{workload_name}-{seed}-{os.getpid()}"
    try:
        inputs, setup_raw, setup_calibrated = set_up(workload, seed, references, workdir)
        m = measure(inputs, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = m.plain + m.traced
    attempted = sum(r.attempted for r in reps)
    failed = sum(min(len(r.failures), r.attempted) for r in reps)
    report = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "environment": environment(inputs),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "cover_excess": summary(r.cover_total - r.reference_total for r in m.plain),
        "failures": [f for r in reps for f in r.failures][:20],
    }
    if trace:
        values = per_layer_values(m, inputs, report)
        declared = spec["per_layer"]
    else:
        values = end_to_end_values(m, setup_raw, setup_calibrated, report)
        declared = spec["end_to_end"]
    report["values"] = values
    metrics = {
        d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report, result = benchmark(args.workload, args.seed, args.seconds, args.trace)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=2))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
