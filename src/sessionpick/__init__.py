"""sessionpick: pick k parallel, non-overlapping sessions of TV programme
slots with maximum total viewers.

Programme slots become weighted intervals on the broadcast day; the
ordered maximal cliques of their overlap graph define a small DAG on which
a minimum-cost k-unit flow yields the optimal selection exactly.
"""

from .oracle import (CheckReport, InstanceTooLarge, OracleResult,
                     brute_force_mwkc, connected_components, overlaps,
                     verify_solution)
from .schedule import (IntervalInstance, ProgrammeSlot, ScheduleError,
                       ValidationIssue, Vertex, parse_schedule,
                       serialize_schedule, to_intervals, validate_schedule)
from .solver import (CliqueSequence, EmptyInstance, FlowNetwork,
                     InternalInvariantViolation, KcolourSolution, build_network,
                     compute_pi, enumerate_maximal_cliques, extract_solution,
                     solve_min_cost_k_flow, solve_mwkc, transform_weights)

__version__ = "0.1.0"

__all__ = [
    "CheckReport", "CliqueSequence", "EmptyInstance", "FlowNetwork",
    "InstanceTooLarge", "InternalInvariantViolation", "IntervalInstance",
    "KcolourSolution", "OracleResult", "ProgrammeSlot", "ScheduleError",
    "ValidationIssue", "Vertex", "brute_force_mwkc", "build_network",
    "compute_pi", "connected_components", "enumerate_maximal_cliques",
    "extract_solution", "overlaps", "parse_schedule", "serialize_schedule",
    "solve_min_cost_k_flow", "solve_mwkc", "to_intervals",
    "transform_weights", "validate_schedule", "verify_solution",
]
