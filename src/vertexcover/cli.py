"""Command line interface: solve, decompose, benchmark, and QUBO export.

All commands are deterministic for a fixed --seed up to wall-clock timing
fields. Results are machine readable: JSON for single runs, CSV for
benchmark sweeps.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .engine import (
    EngineError,
    LEAF_SIZE_PRESETS,
    SolveConfig,
    decompose_only,
    solve,
)
from .graphs import (
    GraphParseError, bits, parse_graph, random_graph, random_graph_avg_degree, serialize_graph
)
from .qubo import build_mvc_qubo, export_qubo

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_IO = 4

_SELECT_KINDS = {
    "min": "lowest_degree",
    "max": "highest_degree",
    "median": "median_degree",
    "random": "random",
}
_LOWER_CHOICES = {
    "none": frozenset(),
    "coloring": frozenset({"coloring"}),
    "lp": frozenset({"lp"}),
    "coloring+lp": frozenset({"coloring", "lp"}),
}
_UPPER_CHOICES = {"none": False, "clique": True}
_REDUCTION_CHOICES = {
    "none": (),
    "neighbor": ("neighbor",),
}
_FORMAT_CHOICES = {
    "dimacs": "dimacs",
    "edge-list": "edge_list",
    "matrix-market": "matrix_market",
}


def _leaf_size(value: str) -> int:
    if value in LEAF_SIZE_PRESETS:
        return LEAF_SIZE_PRESETS[value]
    try:
        size = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"leaf size must be an integer or one of {sorted(LEAF_SIZE_PRESETS)}"
        ) from None
    if size < 1:
        raise argparse.ArgumentTypeError("leaf size must be at least 1")
    return size


def _add_solver_flags(p: argparse.ArgumentParser):
    p.add_argument("--select", choices=sorted(_SELECT_KINDS), default="max",
                   help="split vertex selection strategy")
    p.add_argument("--lower-bound", choices=sorted(_LOWER_CHOICES), default="coloring+lp")
    p.add_argument("--upper-bound", choices=sorted(_UPPER_CHOICES), default="none")
    p.add_argument("--reduction", choices=sorted(_REDUCTION_CHOICES), default="neighbor")
    p.add_argument("--leaf-solver",
                   choices=["exact", "qubo-anneal"], default="exact")
    p.add_argument("--leaf-size", type=_leaf_size, default=46, metavar="N",
                   help="max residual size handed to the leaf solver; "
                        "presets: 2x=46, 2000q=65, pegasus=180")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--qpu-seconds", type=float, default=1.6,
                   help="modeled annealer access cost per dispatched leaf")
    p.add_argument("--anneal-reads", type=int, default=100)
    p.add_argument("--anneal-sweeps", type=int, default=100)


def _config_from_args(args: argparse.Namespace, seed: int | None = None) -> SolveConfig:
    """Build the solve configuration; invalid solver flags are a usage error."""
    seed = args.seed if seed is None else seed
    try:
        return SolveConfig(
            leaf_size=args.leaf_size,
            strategy=_SELECT_KINDS[args.select],
            lower_bounds=_LOWER_CHOICES[args.lower_bound],
            clique_upper_bound=_UPPER_CHOICES[args.upper_bound],
            reductions=_REDUCTION_CHOICES[args.reduction],
            leaf_solver=args.leaf_solver.replace("-", "_"),
            seed=seed,
            qpu_seconds_per_leaf=args.qpu_seconds,
            anneal_reads=args.anneal_reads,
            anneal_sweeps=args.anneal_sweeps,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from exc


def _config_fingerprint(args: argparse.Namespace) -> str:
    return "|".join([
        f"select={args.select}",
        f"lb={args.lower_bound}",
        f"ub={args.upper_bound}",
        f"red={args.reduction}",
        f"leaf={args.leaf_solver}",
        f"size={args.leaf_size}",
        f"seed={args.seed}",
        f"reads={args.anneal_reads}",
        f"sweeps={args.anneal_sweeps}",
        f"qpu={args.qpu_seconds:g}",
    ])


def _infer_format(path: str, explicit: str | None) -> str:
    if explicit is not None:
        return _FORMAT_CHOICES[explicit]
    suffix = Path(path).suffix.lower()
    if suffix == ".mtx":
        return "matrix_market"
    if suffix in (".edges", ".el", ".txt"):
        return "edge_list"
    return "dimacs"


def _load_graph(args: argparse.Namespace):
    path = Path(args.input)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from exc
    try:
        return parse_graph(text, _infer_format(args.input, args.format))
    except GraphParseError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from exc


# -- commands ----------------------------------------------------------------

def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    g = _load_graph(args)
    result = solve(g, cfg)
    report = {
        "input": args.input,
        "n": g.n,
        "m": g.m,
        "size": result.size,
        "cover": sorted(result.cover),
        "leaf_count": result.leaf_count,
        "subproblems_generated": result.subproblems_generated,
        "subproblems_pruned": result.subproblems_pruned,
        "preprocessing_seconds": result.preprocessing_seconds,
        "solution_seconds": result.solution_seconds,
        "max_leaf_vertices": result.max_leaf_vertices,
        "per_depth_stats": [asdict(row) for row in result.per_depth_stats],
        "config": _config_fingerprint(args),
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _parse_point_list(text: str, cast=float) -> list:
    """Parse '10,20,30' or 'start:stop:step' (inclusive stop)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (cast(p) for p in parts)
        if step <= 0:
            raise ValueError("range step must be positive")
        values = []
        value = start
        while value <= stop + 1e-9:
            values.append(cast(value))
            value += step
        return values
    return [cast(p) for p in text.split(",") if p]


def cmd_bench_random(args: argparse.Namespace) -> int:
    if (args.density is None) == (args.avg_degree is None):
        print("error: provide exactly one of --density or --avg-degree",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        sizes = _parse_point_list(args.n, int)
        if args.density is not None:
            params = [("density", d) for d in _parse_point_list(args.density)]
        else:
            params = [("avg_degree", d) for d in _parse_point_list(args.avg_degree)]
        # the whole grid, with the generators' own limits, before any graph is built
        if not sizes or not params:
            raise ValueError("the grid has no points")
        for n in sizes:
            if n < 0:
                raise ValueError(f"--n must be non-negative, got {n}")
            for kind, value in params:
                top = 1 if kind == "density" else max(n - 1, 0)
                if not 0 <= value <= top:
                    flag = "--density" if kind == "density" else "--avg-degree"
                    raise ValueError(f"{flag} {value:g} is outside [0, {top}] for --n {n}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.reps < 1:
        print("error: --reps must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    _config_from_args(args)  # reject bad solver flags before any graph is built

    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["label", "n", "m", "preprocessing_seconds", "leaf_count",
                     "solution_seconds", "cover_size", "config"])
    fingerprint = _config_fingerprint(args)
    point_index = 0
    for n in sizes:
        for kind, value in params:
            # per-repetition sums, in the CSV's column order
            sums = {"n": 0.0, "m": 0.0, "pre": 0.0, "leaves": 0.0,
                    "sol": 0.0, "size": 0.0}
            for rep in range(args.reps):
                run_seed = (args.seed * 1_000_003 + point_index) * 1_000_003 + rep
                if kind == "density":
                    g = random_graph(n, value, seed=run_seed)
                    label = f"rand-n{n}-d{value:g}"
                else:
                    g = random_graph_avg_degree(n, value, seed=run_seed)
                    label = f"rand-n{n}-deg{value:g}"
                cfg = _config_from_args(args, seed=run_seed)
                result = solve(g, cfg)
                sums["n"] += g.n
                sums["m"] += g.m
                sums["pre"] += result.preprocessing_seconds
                sums["leaves"] += result.leaf_count
                sums["sol"] += result.solution_seconds
                sums["size"] += result.size
            writer.writerow([label, *(s / args.reps for s in sums.values()), fingerprint])
            point_index += 1

    text = out.getvalue()
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_export_qubo(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    try:
        q = build_mvc_qubo(g, penalty_a=args.penalty_a, size_b=args.size_b)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = export_qubo(q)
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    g = _load_graph(args)
    out_dir = Path(args.output_dir)
    # a second run would leave the first run's surplus leaf files beside its
    # manifest, so an earlier hand-off is refused, never overwritten
    if (out_dir / "manifest.json").exists() or any(out_dir.glob("leaf_*.dimacs")):
        print(f"error: {out_dir} already holds a decomposition; "
              "choose an empty or new --output-dir", file=sys.stderr)
        return EXIT_USAGE
    result = decompose_only(g, cfg)
    manifest = {
        "input": args.input,
        "config": _config_fingerprint(args),
        "leaf_size": args.leaf_size,
        "incumbent_size": result.incumbent_size,
        "incumbent_cover": sorted(result.incumbent_cover),
        "preprocessing_seconds": result.preprocessing_seconds,
        "subproblems_generated": result.subproblems_generated,
        "subproblems_pruned": result.subproblems_pruned,
        "leaf_count": result.leaf_count,
        "leaves": [],
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, leaf in enumerate(result.leaves):
            name = f"leaf_{i:04d}.dimacs"
            (out_dir / name).write_text(serialize_graph(leaf, "dimacs"))
            manifest["leaves"].append({
                "id": i,
                "file": name,
                "n": leaf.n,
                "committed_count": leaf.committed.bit_count(),
                "committed": bits(leaf.committed),
                "mapping": leaf.vertices(),
            })
        (out_dir / "manifest.json").write_text(json.dumps(manifest))
    except OSError as exc:
        print(f"error: cannot write to {out_dir}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(json.dumps({
        "leaf_count": result.leaf_count,
        "incumbent_size": result.incumbent_size,
        "preprocessing_seconds": result.preprocessing_seconds,
        "subproblems_generated": result.subproblems_generated,
        "subproblems_pruned": result.subproblems_pruned,
        "output_dir": str(out_dir),
    }, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vertexcover",
        description="Minimum vertex cover via recursive decomposition with "
                    "bound pruning, reductions, and annealer-ready QUBO leaves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one graph, print a JSON report")
    p_solve.add_argument("input")
    p_solve.add_argument("--format", choices=sorted(_FORMAT_CHOICES), default=None)
    _add_solver_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser(
        "bench-random",
        help="sweep random graphs over a parameter grid, print CSV",
    )
    p_bench.add_argument("--n", required=True,
                         help="vertex counts: '80' or '50:130:10' or '50,80'")
    p_bench.add_argument("--density", default=None,
                         help="edge densities: '0.5' or '0.1:0.9:0.1' or list")
    p_bench.add_argument("--avg-degree", default=None,
                         help="average degrees: '20' or '10,20,30,40'")
    p_bench.add_argument("--reps", type=int, default=10)
    p_bench.add_argument("--output", default=None, help="CSV path (default stdout)")
    _add_solver_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench_random)

    p_export = sub.add_parser("export-qubo",
                              help="write the whole graph's QUBO in sparse text form")
    p_export.add_argument("input")
    p_export.add_argument("--format", choices=sorted(_FORMAT_CHOICES), default=None)
    p_export.add_argument("--penalty-a", type=float, default=2.0,
                          help="uncovered-edge penalty weight")
    p_export.add_argument("--size-b", type=float, default=1.0,
                          help="per-vertex size weight")
    p_export.add_argument("--output", default=None, help="output path (default stdout)")
    p_export.set_defaults(func=cmd_export_qubo)

    p_dec = sub.add_parser(
        "decompose",
        help="decompose to leaf subgraphs, write DIMACS files plus a manifest",
    )
    p_dec.add_argument("input")
    p_dec.add_argument("--format", choices=sorted(_FORMAT_CHOICES), default=None)
    p_dec.add_argument("--output-dir", required=True)
    _add_solver_flags(p_dec)
    p_dec.set_defaults(func=cmd_decompose)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
