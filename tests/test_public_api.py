"""The names `from sessionpick import ...` gives, and the benchmark's use of them."""

import ast
from pathlib import Path

import sessionpick

BENCH = Path(__file__).resolve().parent.parent / "bench"

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
