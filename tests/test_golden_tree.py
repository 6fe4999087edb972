"""The search tree is part of the solver's contract.

``golden_tree.json`` holds, for a few fixed graphs under every selection
strategy, both reduction chains and two bound configurations, the cover,
leaf count, generated and pruned counts and per-depth stats of ``solve``,
and the same with the incumbent cover for ``decompose_only``; it also holds
the covers ``exact_leaf_solve`` returns on fixed random graphs, which
depend on the order it explores branches in. Any change to how
subproblems are represented must reproduce them exactly. To re-record
after a deliberate change of the tree, run
``PYTHONPATH=src python tests/test_golden_tree.py``. It prints every
entry's leaf count, old -> new, and refuses to write when any ``solve``
cover size differs from the recorded one: a change of the tree may move
work between leaves and pruned nodes, but never changes the optimum.
"""

import functools
import itertools
import json
import sys
from pathlib import Path

import pytest

from vertexcover import (
    SolveConfig,
    decompose_only,
    random_graph,
    random_graph_avg_degree,
    solve,
)
from vertexcover.bounds import LOWER_METHODS
from vertexcover.engine import exact_leaf_solve
from vertexcover.splitting import SELECTION_KINDS

from conftest import keller_benchmark_graph

GOLDEN_FILE = Path(__file__).with_name("golden_tree.json")

# name -> (graph builder, leaf size)
GRAPHS = {
    "sparse-n60": (lambda: random_graph_avg_degree(60, 2, seed=5), 20),
    "dense-n30": (lambda: random_graph(30, 0.5, seed=11), 10),
    "keller-3": (lambda: keller_benchmark_graph(3), 8),
    "dense-n50": (lambda: random_graph(50, 0.3, seed=3), 25),
    # its hand-off keeps leaves in every entry, from a searched incumbent and
    # with the colouring bound's conflicts
    "dense-n56": (lambda: random_graph(56, 0.3, seed=3), 24),
}
CHAINS = ((), ("neighbor",))
BOUNDS = {"default": {}, "all": {"lower_bounds": LOWER_METHODS, "clique_upper_bound": True}}


@functools.cache  # built once per run, for the golden check, the accounting and rerecord
def tree_signatures(name: str) -> dict[str, list]:
    build, leaf_size = GRAPHS[name]
    g = build()
    out = {}
    for kind, chain, bounds in itertools.product(SELECTION_KINDS, CHAINS, BOUNDS):
        cfg = SolveConfig(
            leaf_size=leaf_size,
            strategy=kind,
            **BOUNDS[bounds],
            reductions=chain,
            seed=3,
        )
        key = f"{kind}|{'+'.join(chain) or 'none'}|{bounds}"
        solved = solve(g, cfg)
        decomposed = decompose_only(g, cfg)
        for mode, result, cover in (
            ("solve", solved, solved.cover),
            ("decompose", decomposed, decomposed.incumbent_cover),
        ):
            out[f"{mode}|{key}"] = [
                sorted(cover),
                result.leaf_count,
                result.subproblems_generated,
                result.subproblems_pruned,
                [[r.depth, r.generated, r.pruned, r.leaves] for r in result.per_depth_stats],
            ]
    return out


def leaf_graphs():
    return [random_graph(12 + i % 20, 0.15 + 0.02 * (i % 10), seed=i) for i in range(40)]


def leaf_covers() -> list[list[int]]:
    return [sorted(exact_leaf_solve(g)) for g in leaf_graphs()]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_search_tree_matches_golden(name):
    golden = json.loads(GOLDEN_FILE.read_text())[name]
    got = tree_signatures(name)
    assert got.keys() == golden.keys()
    mismatched = [key for key in golden if got[key] != golden[key]]
    assert not mismatched, mismatched[:5]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_per_depth_accounting(name):
    """Each node generated at a depth is pruned, a leaf, or split into two below it."""
    for key, (_, _, _, _, rows) in tree_signatures(name).items():
        generated = {d: gen for d, gen, _, _ in rows}
        for d, gen, pruned, leaves in rows:
            assert 2 * (gen - pruned - leaves) == generated.get(d + 1, 0), (key, d)


def test_rerecord_refuses_a_changed_solve_cover_size(tmp_path, monkeypatch, capsys):
    golden = json.loads(GOLDEN_FILE.read_text())
    entry = golden["keller-3"]["solve|highest_degree|neighbor|default"]
    entry[0] = entry[0][1:]
    doctored = json.dumps(golden) + "\n"
    path = tmp_path / "golden_tree.json"
    path.write_text(doctored)
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN_FILE", path)
    assert rerecord() == 1
    assert path.read_text() == doctored
    out = capsys.readouterr().out
    assert "refusing to write" in out
    assert "keller-3 solve|highest_degree|neighbor|default: cover size" in out
    assert "keller-3 decompose|random|none|all: leaves" in out


def test_exact_leaf_covers_match_golden():
    assert leaf_covers() == json.loads(GOLDEN_FILE.read_text())["exact_leaf_solve"]


def test_exact_leaf_covers_match_golden_under_a_cutoff():
    """A cutoff one above the recorded size returns the recorded cover; at it, none."""
    golden = json.loads(GOLDEN_FILE.read_text())["exact_leaf_solve"]
    for g, cover in zip(leaf_graphs(), golden, strict=True):
        assert sorted(exact_leaf_solve(g, len(cover) + 1)) == cover
        assert exact_leaf_solve(g, len(cover)) is None


def rerecord() -> int:
    old = json.loads(GOLDEN_FILE.read_text())
    golden = {name: tree_signatures(name) for name in sorted(GRAPHS)}
    golden["exact_leaf_solve"] = leaf_covers()
    resized = []
    for name in sorted(GRAPHS):
        for key, entry in golden[name].items():
            before = old.get(name, {}).get(key)
            if before is None:
                print(f"{name} {key}: new, {entry[1]} leaves")
                continue
            print(f"{name} {key}: leaves {before[1]} -> {entry[1]}")
            if key.startswith("solve|") and len(entry[0]) != len(before[0]):
                resized.append(f"{name} {key}: cover size {len(before[0])} -> {len(entry[0])}")
    if resized:
        print("refusing to write: solve cover sizes changed", *resized, sep="\n")
        return 1
    GOLDEN_FILE.write_text(json.dumps(golden) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(rerecord())
