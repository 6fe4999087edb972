import csv
import io
import json
import re

import pytest

from vertexcover import SolveConfig, cli, is_vertex_cover, parse_graph, serialize_graph
from vertexcover.cli import main
from vertexcover.engine import exact_leaf_solve

from reference import brute_force_oracle, parse_qubo
from conftest import complete_graph


K3_DIMACS = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"
C5_DIMACS = "p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n"


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_triangle_json(tmp_path, capsys):
    path = tmp_path / "k3.dimacs"
    path.write_text(K3_DIMACS)
    code, out, _ = run_cli(capsys, [
        "solve", str(path), "--leaf-size", "46", "--select", "max",
        "--leaf-solver", "exact",
    ])
    assert code == 0
    report = json.loads(out)
    assert report["size"] == 2
    # the greedy-clique cover meets the root's lower bound: pruned, no leaf
    assert report["leaf_count"] == 0
    assert report["subproblems_pruned"] == 1
    assert len(report["cover"]) == 2
    assert report["cover"] == sorted(report["cover"])


def test_solve_empty_graph(tmp_path, capsys):
    path = tmp_path / "empty.dimacs"
    path.write_text("p edge 4 0\n")
    code, out, _ = run_cli(capsys, ["solve", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["size"] == 0
    assert report["cover"] == []


def test_solve_reference_flag_combination(tmp_path, capsys):
    path = tmp_path / "g.dimacs"
    path.write_text(serialize_graph(complete_graph(6), "dimacs"))
    code, out, _ = run_cli(capsys, [
        "solve", str(path), "--lower-bound", "coloring", "--reduction", "neighbor",
    ])
    assert code == 0
    assert json.loads(out)["size"] == 5


def test_cli_defaults_match_solve_config():
    """The solver flags' defaults restate SolveConfig's; they must not drift apart."""
    parse = cli.build_parser().parse_args
    assert cli._config_from_args(parse(["solve", "g.dimacs"])) == SolveConfig()
    tuned = parse(["solve", "g.dimacs", "--lower-bound", "lp", "--upper-bound", "clique",
                   "--reduction", "none"])
    assert cli._config_from_args(tuned) == SolveConfig(
        lower_bounds={"lp"}, clique_upper_bound=True, reductions=()
    )


@pytest.mark.parametrize("flag, value", [
    ("--lower-bound", "spectral"), ("--lower-bound", "all"),
    ("--reduction", "dominance"), ("--reduction", "all"),
])
def test_removed_bound_and_reduction_choices_exit_2(tmp_path, capsys, flag, value):
    path = tmp_path / "k3.dimacs"
    path.write_text(K3_DIMACS)
    with pytest.raises(SystemExit) as err:
        main(["solve", str(path), flag, value])
    assert err.value.code == 2
    assert f"invalid choice: '{value}'" in capsys.readouterr().err


def test_lower_bound_default_is_the_library_default(tmp_path, capsys):
    """solve, decompose and bench-random prune with SolveConfig's bound set,
    and their reports name it."""
    parse = cli.build_parser().parse_args
    for argv in (["solve", "g.dimacs"], ["decompose", "g.dimacs", "--output-dir", "out"],
                 ["bench-random", "--n", "8", "--density", "0.5"]):
        args = parse(argv)
        assert cli._config_from_args(args).lower_bounds == SolveConfig().lower_bounds
    path = tmp_path / "k3.dimacs"
    path.write_text(K3_DIMACS)
    _, out, _ = run_cli(capsys, ["solve", str(path)])
    assert "|lb=coloring+lp|" in json.loads(out)["config"]
    assert cli._LOWER_CHOICES["coloring+lp"] == SolveConfig().lower_bounds


def test_solve_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.dimacs"
    path.write_text("p edge 2 1\ne 1 9\n")
    with pytest.raises(SystemExit) as err:
        main(["solve", str(path)])
    assert err.value.code == 2
    assert "line 2" in capsys.readouterr().err


def test_solve_missing_file_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["solve", str(tmp_path / "nope.dimacs")])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["solve", "decompose", "export-qubo"])
def test_non_utf8_input_exit_2(tmp_path, capsys, command):
    path = tmp_path / "g.dimacs"
    path.write_bytes(b"\xff\xfe")
    flags = ["--output-dir", str(tmp_path / "out")] if command == "decompose" else []
    with pytest.raises(SystemExit) as err:
        main([command, str(path), *flags])
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "decompose", "bench-random"])
@pytest.mark.parametrize("flags", [
    ["--leaf-solver", "qubo-anneal", "--anneal-reads", "0"],
    ["--anneal-sweeps", "0"],
    ["--qpu-seconds", "-1"],
    ["--qpu-seconds", "nan"],
])
def test_bad_numeric_solver_flag_exit_2(tmp_path, capsys, command, flags):
    path = tmp_path / "k3.dimacs"
    path.write_text(K3_DIMACS)
    args = {
        "solve": ["solve", str(path)],
        "decompose": ["decompose", str(path), "--output-dir", str(tmp_path / "out")],
        "bench-random": ["bench-random", "--n", "8", "--density", "0.5", "--reps", "1"],
    }[command]
    with pytest.raises(SystemExit) as err:
        main(args + flags)
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "decompose", "bench-random"])
@pytest.mark.parametrize("leaf_solver", ["exact", "qubo-anneal"])
def test_negative_seed_exit_2_before_any_graph(tmp_path, capsys, monkeypatch, command,
                                               leaf_solver):
    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was built before the seed was checked")

    for name in ("parse_graph", "random_graph", "random_graph_avg_degree"):
        monkeypatch.setattr(cli, name, no_graph)
    path = tmp_path / "k3.dimacs"
    path.write_text(K3_DIMACS)
    args = {
        "solve": ["solve", str(path)],
        "decompose": ["decompose", str(path), "--output-dir", str(tmp_path / "out")],
        "bench-random": ["bench-random", "--n", "20,30", "--avg-degree", "4", "--reps", "1"],
    }[command]
    with pytest.raises(SystemExit) as err:
        main(args + ["--leaf-solver", leaf_solver, "--seed", "-1"])
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: seed must be non-negative, got -1\n"
    assert not (tmp_path / "out").exists()


def test_solver_abort_exit_3(tmp_path, capsys, monkeypatch):
    from vertexcover import engine, random_graph

    def fail(*args):
        raise ValueError("annealer offline")

    monkeypatch.setattr(engine, "solve_anneal", fail)
    path = tmp_path / "big.dimacs"
    path.write_text(serialize_graph(random_graph(40, 0.2, seed=1), "dimacs"))
    code, out, err = run_cli(capsys, [
        "solve", str(path), "--leaf-solver", "qubo-anneal", "--leaf-size", "46",
    ])
    assert code == 3
    assert out == ""
    assert re.fullmatch(r"error: leaf solver 'qubo_anneal' failed on subproblem "
                        r"\(path=0b[01]+, n=[1-9]\d*\): annealer offline\n", err)


def test_unknown_leaf_solver_exit_2(tmp_path, capsys):
    path = tmp_path / "k3.dimacs"
    path.write_text(K3_DIMACS)
    with pytest.raises(SystemExit) as err:
        main(["solve", str(path), "--leaf-solver", "qubo-exhaustive"])
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "invalid choice: 'qubo-exhaustive'" in out.err


def test_solve_json_deterministic_modulo_timing(tmp_path, capsys):
    from vertexcover import random_graph

    path = tmp_path / "r.dimacs"
    path.write_text(serialize_graph(random_graph(24, 0.3, seed=6), "dimacs"))
    argv = ["solve", str(path), "--leaf-size", "6", "--seed", "7"]
    reports = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        report = json.loads(out)
        report.pop("preprocessing_seconds")
        report.pop("solution_seconds")
        reports.append(report)
    assert reports[0] == reports[1]


def test_export_qubo_triangle(tmp_path, capsys):
    path = tmp_path / "k3.dimacs"
    path.write_text(K3_DIMACS)
    out_path = tmp_path / "k3.qubo"
    code, _, _ = run_cli(capsys, [
        "export-qubo", str(path), "--output", str(out_path),
    ])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert "0 0 -3.0" in lines and "1 1 -3.0" in lines and "2 2 -3.0" in lines
    assert sum(1 for l in lines if l.endswith(" 2.0")) == 3


def test_export_qubo_rejects_bad_weights(tmp_path, capsys):
    path = tmp_path / "k3.dimacs"
    path.write_text(K3_DIMACS)
    for penalty_a in ("1", "inf"):
        code, _, err = run_cli(capsys, [
            "export-qubo", str(path), "--penalty-a", penalty_a, "--size-b", "1",
        ])
        assert code == 2
        assert "penalty" in err


def test_export_qubo_round_trip(tmp_path, capsys):
    from vertexcover import random_graph
    from vertexcover.qubo import Qubo, build_mvc_qubo

    g = random_graph(9, 0.5, seed=12)
    path = tmp_path / "g.dimacs"
    path.write_text(serialize_graph(g, "dimacs"))
    code, out, _ = run_cli(capsys, ["export-qubo", str(path)])
    assert code == 0
    assert Qubo(**parse_qubo(out)) == build_mvc_qubo(g)


def test_decompose_manifest_closure(tmp_path, capsys):
    from vertexcover import random_graph

    # with no lower bound the second graph's leaves keep edges, so the mapping
    # is exercised; the colouring bound alone proves both incumbents
    leaves_with_edges = 0
    for g, leaf_size in ((random_graph(16, 0.35, seed=9), 5),
                         (random_graph(20, 0.5, seed=9), 8)):
        oracle = brute_force_oracle(g)
        path = tmp_path / "g.dimacs"
        path.write_text(serialize_graph(g, "dimacs"))
        out_dir = tmp_path / f"leaves{leaf_size}"
        code, out, _ = run_cli(capsys, [
            "decompose", str(path), "--output-dir", str(out_dir),
            "--leaf-size", str(leaf_size), "--seed", "3", "--lower-bound", "none",
        ])
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        candidates = [manifest["incumbent_size"]]
        # the manifest alone finishes the solve: each leaf's committed
        # vertices plus its mapped leaf cover is a cover of the input
        covers = [manifest["incumbent_cover"]]
        for leaf in manifest["leaves"]:
            # committed: ascending input ids, none of them a leaf-file vertex
            committed = leaf["committed"]
            assert all(type(v) is int for v in committed)
            assert committed == sorted(set(committed))
            assert not set(committed) & set(leaf["mapping"])
            assert leaf["committed_count"] == len(committed)
            leaf_graph = parse_graph((out_dir / leaf["file"]).read_text(), "dimacs")
            assert leaf_graph.n <= leaf_size
            leaves_with_edges += leaf_graph.m > 0
            candidates.append(leaf["committed_count"] + brute_force_oracle(leaf_graph))
            cover = set(leaf["committed"]) | {
                leaf["mapping"][v] for v in exact_leaf_solve(leaf_graph)
            }
            assert is_vertex_cover(g, cover)
            covers.append(cover)
        assert min(candidates) == oracle
        assert is_vertex_cover(g, manifest["incumbent_cover"])
        assert min(len(c) for c in covers) == oracle
        # legend printed to stdout mirrors the manifest
        stats = json.loads(out)
        assert stats["leaf_count"] == len(manifest["leaves"])
    assert leaves_with_edges > 0


def test_decompose_small_input_is_single_identical_leaf(tmp_path, capsys):
    # with no lower bound nothing proves C5's incumbent, so the root is kept whole
    path = tmp_path / "c5.dimacs"
    path.write_text(C5_DIMACS)
    out_dir = tmp_path / "leaves"
    code, _, _ = run_cli(capsys, [
        "decompose", str(path), "--output-dir", str(out_dir),
        "--reduction", "none", "--lower-bound", "none",
    ])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest["leaves"]) == 1
    leaf = parse_graph((out_dir / manifest["leaves"][0]["file"]).read_text(), "dimacs")
    assert leaf.n == 5 and leaf.m == 5


def test_decompose_proved_incumbent_writes_no_leaf(tmp_path, capsys):
    # K3's incumbent, 2, meets its colouring bound: the hand-off is the incumbent
    path = tmp_path / "k3.dimacs"
    path.write_text(K3_DIMACS)
    out_dir = tmp_path / "leaves"
    code, out, _ = run_cli(capsys, [
        "decompose", str(path), "--output-dir", str(out_dir),
        "--reduction", "none",
    ])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["leaves"] == [] and manifest["leaf_count"] == 0
    assert manifest["incumbent_size"] == brute_force_oracle(complete_graph(3)) == 2
    assert is_vertex_cover(complete_graph(3), manifest["incumbent_cover"])
    assert json.loads(out)["leaf_count"] == 0
    assert not list(out_dir.glob("leaf_*.dimacs"))


def test_decompose_leaf_size_preset_name(tmp_path, capsys):
    path = tmp_path / "k3.dimacs"
    path.write_text(K3_DIMACS)
    out_dir = tmp_path / "leaves"
    code, _, _ = run_cli(capsys, [
        "decompose", str(path), "--output-dir", str(out_dir),
        "--leaf-size", "pegasus",
    ])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["leaf_size"] == 180


def test_decompose_refuses_an_earlier_hand_off(tmp_path, capsys):
    from vertexcover import random_graph

    path = tmp_path / "g.dimacs"
    path.write_text(serialize_graph(random_graph(40, 0.3, seed=2), "dimacs"))
    out_dir = tmp_path / "leaves"
    out_dir.mkdir()
    (out_dir / "notes.txt").write_text("kept\n")  # other files do not block a run
    argv = ["decompose", str(path), "--output-dir", str(out_dir)]
    code, _, _ = run_cli(capsys, argv + ["--leaf-size", "8"])
    assert code == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    # a smaller second decomposition would leave surplus leaf files behind
    code, out, err = run_cli(capsys, argv + ["--leaf-size", "20"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


@pytest.mark.parametrize("leftover", ["manifest.json", "leaf_0003.dimacs"])
def test_decompose_refuses_any_hand_off_file(tmp_path, capsys, leftover):
    path = tmp_path / "k3.dimacs"
    path.write_text(K3_DIMACS)
    out_dir = tmp_path / "leaves"
    out_dir.mkdir()
    (out_dir / leftover).write_text("")
    code, _, err = run_cli(capsys, [
        "decompose", str(path), "--output-dir", str(out_dir),
    ])
    assert code == 2
    assert err.startswith("error: ")
    assert [p.name for p in out_dir.iterdir()] == [leftover]


def test_decompose_deterministic_modulo_timing(tmp_path, capsys):
    from vertexcover import random_graph

    path = tmp_path / "g.dimacs"
    path.write_text(serialize_graph(random_graph(64, 0.25, seed=3), "dimacs"))
    runs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        code, _, _ = run_cli(capsys, [
            "decompose", str(path), "--output-dir", str(out_dir),
            "--leaf-size", "28", "--seed", "5",
        ])
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        manifest.pop("preprocessing_seconds")
        leaves = {p.name: p.read_bytes() for p in out_dir.glob("leaf_*.dimacs")}
        runs.append((manifest, leaves))
    (first, first_leaves), (second, second_leaves) = runs
    assert len(first_leaves) == first["leaf_count"] > 1
    assert first_leaves == second_leaves
    assert first == second


def test_bench_random_deterministic_modulo_timing(capsys):
    argv = [
        "bench-random", "--n", "8:10:2", "--density", "0.3",
        "--reps", "2", "--seed", "7",
    ]
    tables = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["label", "n", "m", "preprocessing_seconds", "leaf_count",
                           "solution_seconds", "cover_size", "config"]
        # drop the wall-clock columns; everything else must be identical
        tables.append([
            [c for i, c in enumerate(row) if i not in (3, 5)] for row in rows[1:]
        ])
    assert tables[0] == tables[1]
    assert len(tables[0]) == 2


@pytest.mark.parametrize("flag, values", [
    ("--qpu-seconds", ("1.6", "2.5")),
    ("--anneal-reads", ("100", "50")),
    ("--anneal-sweeps", ("100", "50")),
])
def test_bench_random_config_names_each_result_flag(capsys, flag, values):
    configs = []
    for value in values:
        code, out, _ = run_cli(capsys, [
            "bench-random", "--n", "8", "--density", "0.3", "--reps", "1", flag, value,
        ])
        assert code == 0
        configs.append(list(csv.reader(io.StringIO(out)))[1][-1])
    assert configs[0] != configs[1]


def test_bench_random_avg_degree_grid(capsys):
    code, out, _ = run_cli(capsys, [
        "bench-random", "--n", "12", "--avg-degree", "2,4",
        "--reps", "1", "--seed", "1",
    ])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[0] for r in rows[1:]] == ["rand-n12-deg2", "rand-n12-deg4"]


def test_bench_random_requires_one_parameter(capsys):
    code, _, err = run_cli(capsys, ["bench-random", "--n", "10", "--reps", "1"])
    assert code == 2
    assert "density" in err


@pytest.mark.parametrize("grid", [
    ["--n", "10", "--avg-degree", "9.5"],  # above n - 1
    ["--n", "30,10", "--avg-degree", "20"],  # valid for the first size only
    ["--n", "10", "--density", "1.5"],
    ["--n", "10", "--density", "-0.1"],
    ["--n", "-3", "--density", "0.5"],
    ["--n", "-3", "--avg-degree", "0"],
    ["--n", "10:2:1", "--density", "0.5"],  # empty range
    ["--n", "10", "--density", ""],
])
def test_bench_random_rejects_bad_grid_before_solving(tmp_path, capsys, monkeypatch, grid):
    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was built before the grid was checked")

    monkeypatch.setattr(cli, "random_graph", no_graph)
    monkeypatch.setattr(cli, "random_graph_avg_degree", no_graph)
    output = tmp_path / "out.csv"
    code, out, err = run_cli(
        capsys, ["bench-random", *grid, "--reps", "1", "--output", str(output)]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert not output.exists()


def test_bench_random_rejects_bad_range(capsys):
    code, _, _ = run_cli(capsys, [
        "bench-random", "--n", "10:2:0", "--density", "0.5", "--reps", "1",
    ])
    assert code == 2
