"""Command-line interface.

JSON on stdout is the machine contract; anything meant for humans (tables,
warnings, errors) goes to stderr. Exit codes: 0 success, 1 data problems
(validation errors, unparseable input), 2 usage problems and failed writes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator
from functools import cache
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TextIO

from .oracle import InstanceTooLarge, brute_force_mwkc, verify_solution
from .schedule import (IntervalInstance, ProgrammeSlot, ScheduleError, ValidationIssue,
                       format_time, parse_schedule, to_intervals, validate_schedule)
from .solver import (EmptyInstance, KcolourSolution, build_network, compute_pi,
                     enumerate_maximal_cliques, solve_mwkc, transform_weights)

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_input(args: argparse.Namespace) -> tuple[ProgrammeSlot, ...]:
    path = Path(args.input)
    fmt = args.format or ("json" if path.suffix.lower() == ".json" else "csv")
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}", EXIT_USAGE) from None
    try:
        return parse_schedule(data, fmt)
    except ScheduleError as exc:
        raise _CliError(f"{path}: {exc}", EXIT_DATA) from None


def _excluded(args: argparse.Namespace) -> frozenset[str]:
    if not args.exclude:
        return frozenset()
    return frozenset(part.strip() for part in args.exclude.split(",") if part.strip())


def _print_issues(report: list[ValidationIssue]) -> bool:
    """Print validation issues to stderr; True if any of them is an error."""
    for issue in report:
        print(f"{issue.severity}: {issue.message}", file=sys.stderr)
    return any(issue.severity == "ERROR" for issue in report)


def _checked_instance(
        args: argparse.Namespace) -> tuple[tuple[ProgrammeSlot, ...], IntervalInstance]:
    schedule = _read_input(args)
    if _print_issues(validate_schedule(schedule)):
        raise _CliError("schedule has validation errors", EXIT_DATA)
    try:
        inst = to_intervals(schedule, _excluded(args))
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from None
    try:  # every total, session weight, pi and weight_U printed is at most this
        str(inst.total_weight)
    except ValueError:  # over sys.get_int_max_str_digits()
        raise _CliError("total viewers has too many digits to print", EXIT_DATA) from None
    return schedule, inst


def _emit(payload: dict | str | Iterator[str], args: argparse.Namespace) -> None:
    """Write a JSON payload, text as it is, or text piece by piece, to
    --output or stdout."""
    if isinstance(payload, dict):
        payload = json.dumps(payload, indent=2) + "\n"
    pieces = [payload] if isinstance(payload, str) else payload
    if args.output:
        try:
            with Path(args.output).open("w") as fh:
                _write(fh, pieces)
        except OSError as exc:
            raise _CliError(f"cannot write {args.output}: {exc}", EXIT_USAGE) from None
    else:
        _write(sys.stdout, pieces)


def _write(stream: TextIO, pieces: Iterable[str]) -> None:
    """Each piece in turn, through the stream's write alone: a stand-in
    for stdout or stderr may have no writelines."""
    for piece in pieces:
        stream.write(piece)


def _cmd_validate(args: argparse.Namespace) -> int:
    schedule = _read_input(args)
    report = validate_schedule(schedule)
    payload = {"issues": [
        {"severity": i.severity, "slot_ids": list(i.slot_ids), "message": i.message}
        for i in report
    ]}
    _emit(payload, args)
    if _print_issues(report):
        return EXIT_DATA
    print(f"{len(schedule)} slots, {len(report)} issue(s)", file=sys.stderr)
    return EXIT_OK


def _cmd_cliques(args: argparse.Namespace) -> int:
    _, inst = _checked_instance(args)
    cs = enumerate_maximal_cliques(inst)
    payload = {
        "cliques": [
            {"index": i, "members": list(members), "leading_point": lp}
            for i, (members, lp) in enumerate(zip(cs.cliques, cs.leading_points), start=1)
        ],
        "spans": {str(vid): list(span) for vid, span in enumerate(cs.spans)},
    }
    _emit(payload, args)
    return EXIT_OK


def _cmd_network(args: argparse.Namespace) -> int:
    _, inst = _checked_instance(args)
    net = build_network(enumerate_maximal_cliques(inst), inst, args.k)
    pi = compute_pi(net)
    weight_u = transform_weights(net, pi)
    # c-arcs are ids 0..r-1 with capacity k; arc r + v is vertex v's i-arc
    arcs = [{"arc_id": a, "tail": tail, "head": head,
             "kind": "c_arc" if a < net.r else "i_arc",
             "vertex": None if a < net.r else a - net.r,
             "weight_N": w, "weight_U": wu, "capacity": net.k if a < net.r else 1}
            for a, ((tail, head, w), wu) in enumerate(zip(net.arcs, weight_u))]
    if args.dump == "dot":
        lines = ["digraph network {", "  rankdir=LR;"]
        lines += [f"  C{node};" for node in range(net.node_count)]
        for arc in arcs:
            style = ", style=dashed" if arc["kind"] == "c_arc" else ""
            lines.append(f'  C{arc["tail"]} -> C{arc["head"]} [label="w={arc["weight_N"]}'
                         f'/wU={arc["weight_U"]}/cap={arc["capacity"]}"{style}];')
        lines.append("}")
        _emit("\n".join(lines) + "\n", args)
    else:
        _emit({"node_count": net.node_count, "k": args.k, "pi": pi, "arcs": arcs}, args)
    return EXIT_OK


# json.dumps(payload, indent=2) of a solve result, one template per level;
# strings go through the encoder json.dumps uses under ensure_ascii
_SOLUTION = '{\n  "k": %d,\n  "total_weight": %d,\n  "sessions": [\n%s'
_SOLUTION_END = '\n  ]\n}\n'
_SESSION = '    {\n      "weight": %d,\n      "slots": [\n%s\n      ]\n    }'
_EMPTY_SESSION = '    {\n      "weight": 0,\n      "slots": []\n    }'
_SLOT = ('        {\n          "slot_id": %s,\n          "channel": %s,\n'
         '          "title": %s,\n          "start": "%s",\n          "end": "%s",\n'
         '          "viewers": %d\n        }')
_EMPTY_LINE = "session %d (weight 0):\n"
_CHUNK = 1024  # empty sessions per piece of text


def _solution_text(sol: KcolourSolution, schedule: tuple[ProgrammeSlot, ...],
                   inst: IntervalInstance) -> tuple[Iterator[str], Iterator[str]]:
    """The solve result as JSON text and as the stderr table, each as pieces
    to write in turn.

    One walk formats the sessions with slots. extract_solution puts the
    empty sessions last, and past omega they number k - omega, so their
    text is made _CHUNK sessions at a time as it is written: neither text
    is ever held whole."""
    slot_by_id = {slot.title: slot for slot in schedule}
    assert inst.provenance is not None
    provenance = inst.provenance
    k = len(sol.classes)
    busy = k - sol.classes.count(())
    sessions: list[str] = []
    table = [f"k={sol.k} total_weight={sol.total_weight}\n"]
    for i, members in enumerate(sol.classes[:busy], start=1):
        slots = []
        lines = []
        weight = 0
        for vid in members:
            channel, title, start, end, viewers = slot_by_id[provenance[vid]]
            weight += viewers
            start = format_time(start)
            end = format_time(end)
            quoted = encode_basestring_ascii(title)
            slots.append(_SLOT % (quoted, encode_basestring_ascii(channel), quoted,
                                  start, end, viewers))
            lines.append("  %s-%s  %-12s %s  (%d)\n" % (start, end, channel, title, viewers))
        sessions.append(_SESSION % (weight, ",\n".join(slots)))
        table.append(f"session {i} (weight {weight}):\n")
        table += lines
    runs = range(busy, k, _CHUNK)  # the first session of each piece of empty ones
    return (chain([_SOLUTION % (sol.k, sol.total_weight, ",\n".join(sessions))],
                  (",\n" * bool(a) + ",\n".join(repeat(_EMPTY_SESSION, min(_CHUNK, k - a)))
                   for a in runs),
                  [_SOLUTION_END]),
            chain(["".join(table)],
                  ("".join(map(_EMPTY_LINE.__mod__, range(a + 1, min(a + _CHUNK, k) + 1)))
                   for a in runs)))


def _cmd_solve(args: argparse.Namespace) -> int:
    schedule, inst = _checked_instance(args)
    try:
        sol = solve_mwkc(inst, args.k)
    except (OverflowError, MemoryError):  # too many sessions to count or to hold
        raise _CliError(f"--k {args.k} is too large to solve", EXIT_DATA) from None
    text, table = _solution_text(sol, schedule, inst)
    _emit(text, args)
    _write(sys.stderr, table)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    schedule, inst = _checked_instance(args)
    result = brute_force_mwkc(inst, args.k)
    assert inst.provenance is not None
    payload = {
        "k": args.k,
        "best_weight": result.best_weight,
        "best_subset": sorted(inst.provenance[vid] for vid in result.best_subset),
        "nodes_explored": result.nodes_explored,
    }
    _emit(payload, args)
    return EXIT_OK


def _all_objects(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(item, dict) for item in value)


def _cmd_check(args: argparse.Namespace) -> int:
    schedule, inst = _checked_instance(args)
    try:
        data = json.loads(Path(args.solution).read_text())
    except OSError as exc:
        raise _CliError(f"cannot read {args.solution}: {exc}", EXIT_USAGE) from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep
        raise _CliError(f"{args.solution}: invalid JSON: {exc}", EXIT_DATA) from None
    if not isinstance(data, dict) or "sessions" not in data:
        raise _CliError(f"{args.solution}: not a solution file", EXIT_DATA)
    sessions = data["sessions"]
    if not _all_objects(sessions):
        raise _CliError(f"{args.solution}: sessions must be a list of objects", EXIT_DATA)
    k = args.k if args.k is not None else data.get("k", len(sessions))
    total_weight = data.get("total_weight", 0)
    for name, value in (("k", k), ("total_weight", total_weight)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise _CliError(f"{args.solution}: {name} must be an integer", EXIT_DATA)
    if k < 1:
        raise _CliError(f"{args.solution}: k must be >= 1, got {k}", EXIT_DATA)

    assert inst.provenance is not None
    vid_by_slot = {slot_id: vid for vid, slot_id in inst.provenance.items()}
    extra: list[str] = []
    classes: list[tuple[int, ...]] = []
    for si, session in enumerate(sessions, start=1):
        members = []
        claimed = session.get("weight")  # absent or null: not claimed
        if claimed is not None and (isinstance(claimed, bool) or not isinstance(claimed, int)):
            raise _CliError(f"{args.solution}: session {si}: weight must be an integer",
                            EXIT_DATA)
        actual = 0
        slots = session.get("slots", [])
        if not _all_objects(slots):
            raise _CliError(f"{args.solution}: session {si}: slots must be a list of objects",
                            EXIT_DATA)
        for slot in slots:
            slot_id = slot.get("slot_id")
            if slot_id is not None and not isinstance(slot_id, str):
                raise _CliError(f"{args.solution}: session {si}: slot_id must be a string",
                                EXIT_DATA)
            if slot_id not in vid_by_slot:
                extra.append(f"session {si}: unknown slot id {slot_id!r}")
                continue
            members.append(vid_by_slot[slot_id])
            actual += inst.vertices[vid_by_slot[slot_id]].w
        if claimed is not None and claimed != actual:
            extra.append(f"session {si}: claimed weight {claimed}, slots sum to {actual}")
        classes.append(tuple(members))
    sol = KcolourSolution(
        k=k,
        Q=frozenset(v for members in classes for v in members),
        classes=tuple(classes),
        total_weight=total_weight,
    )
    report = verify_solution(sol, inst, k)
    violations = extra + list(report.violations)
    payload = {
        "ok": not violations,
        "violations": violations,
        "class_weights": list(report.class_weights),
        "total_weight": report.total_weight,
    }
    _emit(payload, args)
    for v in violations:
        print(f"FAIL: {v}", file=sys.stderr)
    if violations:
        return EXIT_DATA
    print(f"PASS: {len(classes)} sessions, total weight {report.total_weight}",
          file=sys.stderr)
    return EXIT_OK


@cache  # built on the first main call, then reused: building costs about 1 ms
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sessionpick",
        description="Select k parallel, non-overlapping sessions of programme "
                    "slots with maximum total viewers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, exclude: bool = True) -> None:
        p.add_argument("--input", required=True, help="schedule file (CSV or JSON)")
        p.add_argument("--format", choices=["csv", "json"],
                       help="input format; default inferred from the file suffix")
        p.add_argument("--output", help="write the JSON result here instead of stdout")
        if exclude:
            p.add_argument("--exclude", metavar="SLOT_ID,...",
                           help="drop these slots before solving")

    p = sub.add_parser("validate", help="report schedule problems")
    add_common(p, exclude=False)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("cliques", help="dump the ordered maximal cliques")
    add_common(p)
    p.set_defaults(func=_cmd_cliques)

    p = sub.add_parser("network", help="dump the flow network")
    add_common(p)
    p.add_argument("--k", type=int, default=1, help="session count (sets arc capacities)")
    p.add_argument("--dump", choices=["dot", "json"], default="json")
    p.set_defaults(func=_cmd_network)

    p = sub.add_parser("solve", help="compute the optimal k sessions")
    add_common(p)
    p.add_argument("--k", type=int, required=True, help="number of parallel sessions")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive-search optimum (small instances)")
    add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("check", help="verify a solution file against a schedule")
    add_common(p)
    p.add_argument("--k", type=int, help="session budget; default taken from the file")
    p.add_argument("solution", help="solution JSON produced by solve")
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            if getattr(args, "k", None) is not None and args.k < 1:
                parser.error("--k must be >= 1")
            return args.func(args)
        except (_CliError, EmptyInstance, InstanceTooLarge) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return getattr(exc, "code", EXIT_DATA)  # the library's refusals are data errors
        finally:  # so that a closed or full stdout fails here, not at exit
            sys.stdout.flush()
    except OSError as exc:  # a write to stdout or stderr failed
        try:
            sys.stdout.flush()
        except OSError:  # the flush at exit would raise again, so let it write nowhere
            _stdout_to_devnull()
        try:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        except OSError:
            pass
        return EXIT_USAGE


def _stdout_to_devnull() -> None:
    """Point this process's fd 1 at os.devnull, if sys.stdout writes to it."""
    try:
        if sys.stdout.fileno() != 1:
            return
    except (AttributeError, OSError, ValueError):  # no fd, e.g. a test's StringIO
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
