"""The package's top-level names, and the reference views kept out of it."""

import ast
from pathlib import Path

import vertexcover
from vertexcover import engine
from vertexcover.splitting import Subproblem

TESTS = Path(__file__).resolve().parent
PACKAGE = Path(vertexcover.__file__).resolve().parent
SPANS = TESTS.parent / "perfbench" / "spans.py"

PUBLIC = {
    "solve", "decompose_only", "SolveConfig", "SolveResult", "DecomposeResult",
    "DepthStats", "EngineError", "is_vertex_cover", "LEAF_SIZE_PRESETS",
    "Graph", "GraphParseError", "FORMATS", "build_graph", "parse_graph",
    "serialize_graph", "random_graph", "random_graph_avg_degree",
}
REFERENCE_ONLY = {
    "brute_force_oracle", "induced_subgraph", "ORACLE_CAP", "solve_exhaustive", "EXHAUSTIVE_CAP",
    "parse_qubo",
}


def vertexcover_imports(path: Path) -> set[str]:
    """The ``vertexcover`` modules the file at ``path`` imports from, by full name."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules.add(node.module)
    return {m for m in modules if m.split(".")[0] == "vertexcover"}


def test_top_level_exports_exactly_the_library_entry_points():
    assert set(vertexcover.__all__) == PUBLIC
    assert len(vertexcover.__all__) == len(PUBLIC)
    for name in PUBLIC:
        assert getattr(vertexcover, name) is not None


def test_package_holds_no_reference_view():
    assert not hasattr(Subproblem, "graph")
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in REFERENCE_ONLY, (path.name, node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                imported = {alias.name.split(".")[-1] for alias in node.names}
                assert not imported & REFERENCE_ONLY, (path.name, imported)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assert node.id not in REFERENCE_ONLY, (path.name, node.id)


def test_reference_module_imports_only_the_graph_layer():
    assert vertexcover_imports(TESTS / "reference.py") == {"vertexcover.graphs"}


def test_tracer_engine_targets_name_engine_attributes():
    """The benchmark's tracer wraps engine functions by name; a rename must
    fail here, not only in a traced full-size run. spans.py is read, not run."""
    tree = ast.parse(SPANS.read_text())
    targets = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    attrs = [
        entry.elts[1].value for entry in targets.elts
        if entry.elts[0].value == "engine"
    ]
    assert "reduce_chain" in attrs and "combine_bounds" in attrs
    missing = [attr for attr in attrs if not hasattr(engine, attr)]
    assert not missing, missing
