"""The names `from sessionpick import ...` gives, the benchmark's use of them,
and which package modules import which."""

import ast
from pathlib import Path

import sessionpick

BENCH = Path(__file__).resolve().parent.parent / "bench"
PACKAGE = Path(sessionpick.__file__).resolve().parent

PUBLIC = [
    "CheckReport", "CliqueSequence", "EmptyInstance", "FlowNetwork",
    "InstanceTooLarge", "InternalInvariantViolation", "IntervalInstance",
    "KcolourSolution", "OracleResult", "ProgrammeSlot", "ScheduleError",
    "ValidationIssue", "Vertex", "brute_force_mwkc", "build_network",
    "compute_pi", "connected_components", "enumerate_maximal_cliques",
    "extract_solution", "overlaps", "parse_schedule", "serialize_schedule",
    "solve_min_cost_k_flow", "solve_mwkc", "to_intervals",
    "transform_weights", "validate_schedule", "verify_solution",
]


def test_public_names_are_pinned_and_resolve():
    # adding or removing a public name is a decision: change PUBLIC with it
    assert sorted(sessionpick.__all__) == PUBLIC
    assert len(set(sessionpick.__all__)) == len(sessionpick.__all__)
    missing = [name for name in PUBLIC if not hasattr(sessionpick, name)]
    assert missing == []


def test_bench_imports_only_public_names():
    # pytest from the root collects tests/ only, so a dropped name that
    # bench/ imports would otherwise surface only in `pytest bench`
    imported = {}
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "sessionpick":
                imported.update((alias.name, path.name) for alias in node.names)
    assert imported, "the benchmark imports nothing from sessionpick"
    unknown = {name: where for name, where in imported.items()
               if name not in sessionpick.__all__}
    assert unknown == {}


def _package_imports(path):
    """The sibling modules one file of the package imports."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level and node.module:
            modules.add(f"sessionpick.{node.module}")
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "sessionpick"):
            # from . import x, or from sessionpick import x: x may be a module
            # or a name from __init__, and either is a sibling import here
            modules.update(f"sessionpick.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
    return {name.split(".")[1] for name in modules if name.startswith("sessionpick.")}


def test_module_graph():
    # the oracle is ground truth for the solver, so the two share no code:
    # each reads only the records in schedule, and only the entry points
    # tie modules together
    graph = {path.stem: _package_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    entry_points = ("__init__", "__main__", "cli")
    library = {name: deps for name, deps in graph.items() if name not in entry_points}
    assert library == {"schedule": set(), "solver": {"schedule"}, "oracle": {"schedule"}}
