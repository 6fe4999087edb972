"""Self-test of the benchmark, at tiny size.

Run from the repository root with ``python3 -m pytest perfbench``. It is not
part of the package's test suite, which collects ``tests/`` only.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads(run.BENCHMARK_FILE.read_text())


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workloads_match_benchmark_file():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(wl.WORKLOADS) == list(wl.TINY_WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_tiny_pass_emits_every_metric(workload, trace):
    report, result = run.benchmark(workload, seed=7, seconds=0.05, trace=trace, tiny=True)
    expected = declared("per_layer" if trace else "end_to_end")
    assert set(report["values"]) == set(expected)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["environment"]["seed"] == 7


def test_tiny_workloads_really_decompose():
    for workload in wl.TINY_WORKLOADS:
        _, result = run.benchmark(workload, seed=7, seconds=0.01, trace=0, tiny=True)
        assert result["metrics"]["leaf_count"]["value"] >= 2, workload


def test_wrong_reference_size_counts_as_failure():
    references = wl.load_references()
    references[wl.TINY_WORKLOADS["dense_leaf"].graphs[0]] += 1
    report, result = run.benchmark(
        "dense_leaf", seed=7, seconds=0.05, trace=0, tiny=True, references=references
    )
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert report["failed_frac"] == 1.0
    assert "differs from the reference" in report["failures"][0]


def test_trace_mismatch_is_detected():
    inputs = wl.build_inputs(
        run.import_package(), wl.TINY_WORKLOADS["dense_leaf"], 7,
        wl.load_references(), run.OUT_DIR / "unused",
    )
    rep, spans, kept = run.traced_rep(inputs, run.tracing.Tracer())
    totals = run.tracing.layer_totals(spans)
    assert run.layer_values(inputs, rep, totals, kept)[1] == []
    rep.subproblems_generated += 1
    assert run.layer_values(inputs, rep, totals, kept)[1]
    rep.subproblems_generated -= 1
    rep.wall_s += 1.0  # leaf-solver time that no leaf span covers
    assert "spans of" in run.layer_values(inputs, rep, totals, kept)[1][0]


def test_same_seed_same_inputs():
    vc = run.import_package()
    workload = wl.WORKLOADS["decomposition"]

    def edges(seed):
        inputs = wl.build_inputs(vc, workload, seed, wl.load_references(), run.OUT_DIR / "unused")
        return [sorted(g.edges()) for g in inputs.graphs]

    assert edges(3) == edges(3)
    assert edges(3) != edges(4)


def test_tiny_references_are_optimal():
    vc = run.import_package()
    references = wl.load_references()
    for workload in wl.TINY_WORKLOADS.values():
        if not workload.exact:
            continue
        for label in workload.graphs:
            g = wl.base_graph(vc, label)
            assert vc.engine.solve(g).size == references[label], label


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.BENCHMARK_FILE, tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_leaf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_calibration_samples_inside_a_repetition_and_restores_the_handler():
    import signal
    import time

    import calibration

    before = signal.getsignal(signal.SIGALRM)
    sampler = calibration.Sampler()
    with sampler.active():
        end = time.perf_counter() + 3.5 * calibration.INTERVAL_S
        while time.perf_counter() < end:
            pass
    samples = sampler.take()
    assert len(samples) >= 2 and all(t > 0 for t in samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert sampler.take() == []
    nominal = calibration.NOMINAL_S
    assert calibration.speed([nominal]) == 1.0
    assert calibration.speed([2 * nominal], sampled_s=0.1, wall_s=1.0) == pytest.approx(0.45)
