"""Workload definitions, input generation and the correctness gate.

Every workload runs a fixed set of base graphs. The benchmark seed relabels
their vertices with a seeded permutation and seeds the solver, so different
seeds give different inputs and search trees while the optimum cover size of
each graph, recorded once in ``references.json``, stays valid for every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

REFERENCES_FILE = Path(__file__).with_name("references.json")


@dataclass(frozen=True)
class Workload:
    """One set of inputs, the solver settings it runs with, and its mode.

    ``config`` holds ``SolveConfig`` keyword arguments other than the seed.
    ``handoff`` workloads run ``vertexcover decompose`` in-process instead of
    ``solve``; ``exact`` ones must reproduce the reference size exactly.
    """

    name: str
    graphs: tuple[str, ...]
    config: dict = field(default_factory=dict)
    exact: bool = True
    handoff: bool = False


WORKLOADS = {
    "dense_leaf": Workload("dense_leaf", ("avg_degree-n100-d20-s3",)),
    "decomposition": Workload(
        "decomposition", ("avg_degree-n110-d10-s5", "keller-4")
    ),
    "anneal_leaf": Workload(
        "anneal_leaf",
        ("avg_degree-n50-d30-s3",),
        {"leaf_size": 20, "leaf_solver": "qubo_anneal"},
        exact=False,
    ),
    "decompose_handoff": Workload(
        "decompose_handoff", ("avg_degree-n100-d15-s3",), handoff=True
    ),
}

# Same layers and modes at a size that runs in well under a second; used by
# the self-test, never by the measured benchmark.
TINY_WORKLOADS = {
    "dense_leaf": Workload("dense_leaf", ("avg_degree-n24-d8-s3",), {"leaf_size": 10}),
    "decomposition": Workload(
        "decomposition", ("avg_degree-n24-d4-s5", "keller-3"), {"leaf_size": 10}
    ),
    "anneal_leaf": Workload(
        "anneal_leaf",
        ("avg_degree-n18-d10-s3",),
        {"leaf_size": 8, "leaf_solver": "qubo_anneal", "anneal_reads": 20},
        exact=False,
    ),
    "decompose_handoff": Workload(
        "decompose_handoff", ("avg_degree-n24-d6-s3",), {"leaf_size": 10}, handoff=True
    ),
}


def keller_graph(vc, order: int):
    """Neighbourhood of the all-zero tuple in the Keller graph of ``order``.

    Order 4 is the 171-vertex DIMACS clique benchmark: tuples over {0..3},
    adjacent when they differ in two or more coordinates and by exactly 2
    in at least one.
    """

    def adjacent(a, b):
        diff = [i for i in range(order) if a[i] != b[i]]
        return len(diff) >= 2 and any((a[i] - b[i]) % 4 == 2 for i in diff)

    zero = (0,) * order
    verts = [v for v in product(range(4), repeat=order) if adjacent(zero, v)]
    index = {v: i for i, v in enumerate(verts)}
    edges = [
        (index[a], index[b])
        for i, a in enumerate(verts)
        for b in verts[i + 1:]
        if adjacent(a, b)
    ]
    return vc.graphs.build_graph(len(verts), edges)


def base_graph(vc, label: str):
    """Build a base graph from its label, e.g. ``avg_degree-n100-d20-s3``."""
    kind, *params = label.split("-")
    if kind == "keller":
        return keller_graph(vc, int(params[0]))
    if kind == "avg_degree":
        n, degree, seed = (int(p[1:]) for p in params)
        return vc.graphs.random_graph_avg_degree(n, degree, seed=seed)
    raise ValueError(f"unknown base graph {label!r}")


def relabel(vc, g, rng: random.Random):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return vc.graphs.build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def load_references() -> dict[str, int]:
    return json.loads(REFERENCES_FILE.read_text())


@dataclass
class Inputs:
    """Everything a measured repetition needs, built during set-up."""

    vc: object
    workload: Workload
    seed: int
    graphs: list
    references: list[int]
    config: object
    workdir: Path
    cli_args: list[str] = field(default_factory=list)


def build_inputs(vc, workload: Workload, seed: int, references: dict, workdir: Path):
    """Generate the seeded inputs, their reference sizes and input files."""
    rng = random.Random(seed)
    graphs = [relabel(vc, base_graph(vc, label), rng) for label in workload.graphs]
    config = vc.engine.SolveConfig(seed=seed, **workload.config)
    if workload.exact:
        refs = [references[label] for label in workload.graphs]
    else:
        refs = [vc.engine.solve(g, vc.engine.SolveConfig(seed=seed)).size for g in graphs]
    inputs = Inputs(vc, workload, seed, graphs, refs, config, workdir)
    if workload.handoff:
        workdir.mkdir(parents=True, exist_ok=True)
        dimacs = workdir / "input.dimacs"
        dimacs.write_text(vc.graphs.serialize_graph(graphs[0], "dimacs"))
        inputs.cli_args = [
            "decompose", str(dimacs), "--output-dir", str(workdir / "out"),
            "--seed", str(seed), "--leaf-size", str(config.leaf_size),
        ]
    return inputs


@dataclass
class RepResult:
    """Counters of one repetition of a workload's measured calls."""

    wall_s: float = 0.0
    preprocessing_s: float = 0.0
    modeled_solution_s: float = 0.0
    leaf_count: int = 0
    subproblems_generated: int = 0
    subproblems_pruned: int = 0
    cover_total: int = 0
    reference_total: int = 0
    bytes_written: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    # Scales this repetition's measured seconds to nominal host speed; set
    # by the measurement loop from calibration kernel timings during and
    # around it.
    speed: float = 1.0

    @property
    def cover_ratio(self) -> float:
        return self.cover_total / self.reference_total


def run_rep(inputs: Inputs, call=None) -> RepResult:
    """Run the workload's measured calls once and gate every output.

    ``call`` replaces the entry point (``solve`` or ``cli.main``), which is
    how the tracer puts its root span around it.
    """
    if inputs.workload.handoff:
        return _run_handoff(inputs, call or inputs.vc.cli.main)
    return _run_solves(inputs, call or inputs.vc.engine.solve)


def _run_solves(inputs: Inputs, solve) -> RepResult:
    vc = inputs.vc
    rep = RepResult()
    clock = time.perf_counter
    for g, ref in zip(inputs.graphs, inputs.references):
        rep.attempted += 1
        rep.reference_total += ref
        # A fresh Graph object so no cached adjacency survives between reps.
        g = vc.graphs.Graph(g.adjacency)
        t0 = clock()
        try:
            result = solve(g, inputs.config)
        except Exception as exc:  # a failed solve is counted, not fatal
            rep.wall_s += clock() - t0
            rep.failures.append(f"solve raised {type(exc).__name__}: {exc}")
            rep.cover_total += g.n
            continue
        rep.wall_s += clock() - t0
        rep.preprocessing_s += result.preprocessing_seconds
        rep.modeled_solution_s += result.solution_seconds
        rep.leaf_count += result.leaf_count
        rep.subproblems_generated += result.subproblems_generated
        rep.subproblems_pruned += result.subproblems_pruned
        rep.cover_total += result.size
        problem = _check_cover(vc, g, result.cover, result.size, ref, inputs.workload.exact)
        if problem:
            rep.failures.append(problem)
    return rep


def _check_cover(vc, g, cover, size, ref, exact) -> str | None:
    if len(cover) != size:
        return f"reported size {size} but cover has {len(cover)} vertices"
    if not vc.engine.is_vertex_cover(g, cover):
        return f"cover of size {size} leaves an edge uncovered"
    if exact and size != ref:
        return f"cover size {size} differs from the reference {ref}"
    if size < ref:
        return f"cover size {size} is below the exact reference {ref}"
    return None


def _run_handoff(inputs: Inputs, main) -> RepResult:
    vc = inputs.vc
    g = inputs.graphs[0]
    ref = inputs.references[0]
    out = inputs.workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    rep = RepResult(attempted=1, reference_total=ref, cover_total=g.n)
    clock = time.perf_counter
    t0 = clock()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(inputs.cli_args)
    except (Exception, SystemExit) as exc:  # SystemExit: the CLI's usage exits
        rep.wall_s = clock() - t0
        rep.failures.append(f"decompose raised {type(exc).__name__}: {exc}")
        return rep
    rep.wall_s = clock() - t0
    if code != 0:
        rep.failures.append(f"decompose exited with code {code}")
        return rep
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        leaf_files = [leaf["file"] for leaf in manifest["leaves"]]
        incumbent = manifest["incumbent_cover"]
        rep.leaf_count = manifest["leaf_count"]
        rep.subproblems_generated = manifest["subproblems_generated"]
        rep.subproblems_pruned = manifest["subproblems_pruned"]
        rep.preprocessing_s = manifest["preprocessing_seconds"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        rep.failures.append(f"manifest unreadable: {type(exc).__name__}: {exc}")
        return rep
    rep.modeled_solution_s = (
        rep.preprocessing_s + inputs.config.qpu_seconds_per_leaf * rep.leaf_count
    )
    written = {entry.name: entry.stat().st_size for entry in out.iterdir()}
    rep.bytes_written = sum(written.values())
    on_disk = sorted(name for name in written if name != "manifest.json")
    if rep.leaf_count != len(leaf_files) or on_disk != sorted(leaf_files):
        rep.failures.append(
            f"manifest lists {rep.leaf_count} leaves and {len(leaf_files)} files, "
            f"{len(on_disk)} leaf files on disk"
        )
    rep.cover_total = len(incumbent)
    problem = _check_cover(vc, g, incumbent, len(set(incumbent)), ref, exact=False)
    if problem:
        rep.failures.append("incumbent: " + problem)
    return rep
