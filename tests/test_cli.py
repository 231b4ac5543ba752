import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessionpick import solve_mwkc
from sessionpick.cli import _build_parser, main
from sessionpick.schedule import (CSV_HEADER, format_time, parse_schedule, to_intervals,
                                  validate_schedule)

from conftest import FIXTURES, reference_session_table, reference_solution_payload

DEMO = str(FIXTURES / "demo10.csv")
THREE = str(FIXTURES / "three_channels.csv")
GOLDEN = Path(__file__).resolve().parent / "golden"
HEADER = b"channel,title,start,end,viewers\n"
DEEP = 100_000


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_validate_clean(capsys):
    code, out, err = run_cli(capsys, "validate", "--input", DEMO)
    assert code == 0
    assert json.loads(out) == {"issues": []}
    assert "10 slots" in err


def test_validate_reports_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("channel,title,start,end,viewers\nA,x,05:00,05:00,1\n")
    code, out, err = run_cli(capsys, "validate", "--input", str(bad))
    assert code == 1
    issues = json.loads(out)["issues"]
    assert issues[0]["severity"] == "ERROR"
    assert issues[0]["slot_ids"] == ["x"]


def test_validate_warning_is_not_fatal(tmp_path, capsys):
    sched = tmp_path / "warn.csv"
    sched.write_text("channel,title,start,end,viewers\n"
                     "A,x,01:00,03:00,1\nA,y,02:00,04:00,1\n")
    code, out, err = run_cli(capsys, "validate", "--input", str(sched))
    assert code == 0
    issues = json.loads(out)["issues"]
    assert [i["severity"] for i in issues] == ["WARNING"]
    assert "WARNING" in err


def test_cliques_dump(capsys):
    code, out, _ = run_cli(capsys, "cliques", "--input", DEMO)
    assert code == 0
    payload = json.loads(out)
    assert [c["index"] for c in payload["cliques"]] == [1, 2, 3, 4, 5, 6]
    assert all(isinstance(c["leading_point"], int) for c in payload["cliques"])
    assert sorted(payload["spans"]) == [str(v) for v in range(10)]
    for span in payload["spans"].values():
        assert len(span) == 2 and 1 <= span[0] <= span[1] <= 6
    sizes = sorted(len(c["members"]) for c in payload["cliques"])
    assert sizes == [2, 2, 3, 3, 4, 4]


def test_network_json_dump(capsys):
    code, out, _ = run_cli(capsys, "network", "--input", DEMO, "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["node_count"] == 7
    assert payload["k"] == 2
    assert payload["pi"] == [20, 15, 13, 7, 7, 3, 0]
    assert len(payload["arcs"]) == 16
    c_arcs = [a for a in payload["arcs"] if a["kind"] == "c_arc"]
    assert [a["capacity"] for a in c_arcs] == [2] * 6
    assert [a["weight_U"] for a in c_arcs] == [5, 2, 6, 0, 4, 3]
    for arc in payload["arcs"]:
        assert 0 <= arc["weight_U"] <= 20


def test_network_dot_dump(capsys):
    code, out, _ = run_cli(capsys, "network", "--input", DEMO, "--k", "2",
                           "--dump", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.rstrip().endswith("}")
    assert 'label="w=0/wU=5/cap=2"' in out  # first clique arc
    assert out.count("->") == 16


def test_solve_demo10(capsys):
    code, out, err = run_cli(capsys, "solve", "--input", DEMO, "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 2
    assert payload["total_weight"] == 34
    assert sum(s["weight"] for s in payload["sessions"]) == 34
    for session in payload["sessions"]:
        assert session["weight"] == sum(s["viewers"] for s in session["slots"])
        for slot in session["slots"]:
            assert set(slot) == {"slot_id", "channel", "title", "start", "end", "viewers"}
            assert len(slot["start"]) == 5 and slot["start"][2] == ":"
    assert "total_weight=34" in err


def test_solve_far_past_omega(capsys):
    # demo10 has omega = 4: every slot is picked and the rest of the sessions
    # stay empty
    code, out, _ = run_cli(capsys, "solve", "--input", DEMO, "--k", "10000")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["sessions"]) == 10000
    assert payload["total_weight"] == 39
    _, five, _ = run_cli(capsys, "solve", "--input", DEMO, "--k", "5")
    busy = [session for session in payload["sessions"] if session["slots"]]
    assert busy == [session for session in json.loads(five)["sessions"] if session["slots"]]


# runs main in a child and prints its exit code and peak RSS in KiB. The
# peak is the child's own VmHWM: ru_maxrss would start from the peak of the
# process that started the child, so it would read the test run's memory
_REPORT_PEAK = ("import re, sys\n"
                "from sessionpick.cli import main\n"
                "code = main(sys.argv[1:])\n"
                "with open('/proc/self/status') as fh:\n"
                "    peak = re.search(r'^VmHWM:\\s*(\\d+) kB$', fh.read(), re.M)[1]\n"
                "print(code, peak)\n")


def test_solve_far_past_omega_is_written_in_pieces(capsys, tmp_path):
    # k = 10**6 on demo10 gives 50 MB of JSON and 27 MB of table, nearly all
    # of it empty sessions; no whole text is held, so the peak stays far
    # below either
    k = 10**6
    output = tmp_path / "solution.json"
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_PEAK, "solve", "--input", DEMO, "--k", str(k),
         "--output", str(output)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=120,
        env=_child_env(False))
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kib < 64 * 1024
    # each session past the fifth adds what the sixth adds to the text
    _, five, _ = run_cli(capsys, "solve", "--input", DEMO, "--k", "5")
    _, six, _ = run_cli(capsys, "solve", "--input", DEMO, "--k", "6")
    step = len(six) - len(five)
    size = len(five) + len(str(k)) - 1 + (k - 5) * step
    assert output.stat().st_size == size
    head = five[:-step].replace('"k": 5', f'"k": {k}', 1)
    with open(output) as fh:
        assert fh.read(len(head)) == head
        fh.seek(size - step)
        assert fh.read() == six[-step:]


def test_solve_huge_k_is_one_error_line(capsys):
    # no tuple can be that long, so the solve fails before it allocates
    # the empty sessions
    k = 10**20
    code, out, err = run_cli(capsys, "solve", "--input", DEMO, "--k", str(k))
    assert (code, out) == (1, "")
    assert err == f"error: --k {k} is too large to solve\n"


def test_solve_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "solve", "--input", DEMO, "--k", "2")
    _, second, _ = run_cli(capsys, "solve", "--input", DEMO, "--k", "2")
    assert first == second


def test_solve_json_input(tmp_path, capsys):
    # the same schedule converted to JSON must give the same answer
    from sessionpick import parse_schedule, serialize_schedule
    sched = parse_schedule((FIXTURES / "demo10.csv").read_text(), "csv")
    as_json = tmp_path / "demo10.json"
    as_json.write_text(serialize_schedule(sched, "json"))
    code, out, _ = run_cli(capsys, "solve", "--input", str(as_json), "--k", "2")
    assert code == 0
    assert json.loads(out)["total_weight"] == 34


def test_solve_then_check_roundtrip(tmp_path, capsys):
    solution = tmp_path / "sol.json"
    code, _, _ = run_cli(capsys, "solve", "--input", DEMO, "--k", "2",
                         "--output", str(solution))
    assert code == 0
    code, out, err = run_cli(capsys, "check", "--input", DEMO, str(solution))
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["violations"] == []
    assert payload["total_weight"] == 34
    assert "PASS" in err


def test_check_rejects_tampered_weight(tmp_path, capsys):
    solution = tmp_path / "sol.json"
    run_cli(capsys, "solve", "--input", DEMO, "--k", "2", "--output", str(solution))
    data = json.loads(solution.read_text())
    data["sessions"][0]["weight"] += 1
    solution.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "check", "--input", DEMO, str(solution))
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert any("claimed weight" in v for v in payload["violations"])
    assert "FAIL" in err


@pytest.mark.parametrize("retype", [bool, float, str], ids=["bool", "float", "string"])
def test_check_rejects_non_integer_session_weight(tmp_path, capsys, retype):
    # the true weight in another type: 18.0 == 18, and True counts as 1
    solution = tmp_path / "sol.json"
    run_cli(capsys, "solve", "--input", DEMO, "--k", "2", "--output", str(solution))
    data = json.loads(solution.read_text())
    data["sessions"][1]["weight"] = retype(data["sessions"][1]["weight"])
    solution.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "check", "--input", DEMO, str(solution))
    assert code == 1
    assert out == ""
    assert err == f"error: {solution}: session 2: weight must be an integer\n"


@pytest.mark.parametrize("weight", ["absent", None], ids=["absent", "null"])
def test_check_unclaimed_session_weight_is_not_checked(tmp_path, capsys, weight):
    solution = tmp_path / "sol.json"
    run_cli(capsys, "solve", "--input", DEMO, "--k", "2", "--output", str(solution))
    data = json.loads(solution.read_text())
    if weight == "absent":
        del data["sessions"][0]["weight"]
    else:
        data["sessions"][0]["weight"] = weight
    solution.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "check", "--input", DEMO, str(solution))
    assert code == 0
    assert json.loads(out)["ok"] is True
    assert err.startswith("PASS: 2 sessions")


def test_check_rejects_unknown_slot(tmp_path, capsys):
    solution = tmp_path / "sol.json"
    solution.write_text(json.dumps({
        "k": 2, "total_weight": 5,
        "sessions": [{"weight": 5, "slots": [
            {"slot_id": "nothere", "channel": "A", "title": "nothere",
             "start": "01:00", "end": "02:00", "viewers": 5}]}],
    }))
    code, out, _ = run_cli(capsys, "check", "--input", DEMO, str(solution))
    assert code == 1
    assert any("unknown slot id" in v for v in json.loads(out)["violations"])


def test_check_honours_explicit_k(tmp_path, capsys):
    solution = tmp_path / "sol.json"
    run_cli(capsys, "solve", "--input", DEMO, "--k", "3", "--output", str(solution))
    code, out, _ = run_cli(capsys, "check", "--input", DEMO, "--k", "2", str(solution))
    assert code == 1  # three sessions cannot satisfy a budget of two


def test_check_names_slots_not_vertex_ids(tmp_path, capsys):
    # each session also takes the other's first slot, so both slots sit in
    # both sessions, where they overlap each other
    solution = tmp_path / "sol.json"
    run_cli(capsys, "solve", "--input", DEMO, "--k", "2", "--output", str(solution))
    data = json.loads(solution.read_text())
    first, second = data["sessions"]
    first_slot, second_slot = first["slots"][0], second["slots"][0]
    first["slots"].append(second_slot)
    second["slots"].append(first_slot)
    solution.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "check", "--input", DEMO, str(solution))
    assert code == 1
    assert (first_slot["slot_id"], second_slot["slot_id"]) == ("I1", "I2")
    assert json.loads(out)["violations"][2:] == [
        "class 1: slots 'I2' and 'I1' overlap",
        "slot 'I2' appears in classes 1 and 2",
        "slot 'I1' appears in classes 1 and 2",
        "class 2: slots 'I2' and 'I1' overlap",
    ]
    assert "FAIL: slot 'I2' appears in classes 1 and 2\n" in err


def test_oracle_command(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--input", DEMO, "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["best_weight"] == 34
    assert payload["best_subset"] == ["I1", "I10", "I2", "I3", "I5", "I6", "I9"]
    assert payload["nodes_explored"] > 0


def test_oracle_refuses_large_component(tmp_path, capsys):
    rows = ["channel,title,start,end,viewers"]
    rows += [f"A,t{i},01:00,02:00,1" for i in range(21)]
    big = tmp_path / "big.csv"
    big.write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(capsys, "oracle", "--input", str(big), "--k", "2")
    assert code == 1
    # the warnings before it say that the 21 same-channel slots overlap
    assert err.endswith("\nerror: component with 21 intervals exceeds the search limit 20\n")
    assert all(line.startswith("WARNING: ") for line in err.splitlines()[:-1])


def test_exclude_slots(capsys):
    code, out, _ = run_cli(capsys, "solve", "--input", THREE, "--k", "3",
                           "--exclude", "A6")
    assert code == 0
    assert json.loads(out)["total_weight"] == 210


def test_exclude_unknown_slot(capsys):
    code, _, err = run_cli(capsys, "solve", "--input", THREE, "--k", "3",
                           "--exclude", "A99")
    assert code == 2
    assert "A99" in err


def test_missing_input_file(capsys):
    code, _, err = run_cli(capsys, "solve", "--input", "/no/such/file.csv", "--k", "1")
    assert code == 2
    assert "cannot read" in err


def test_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("totally,wrong,header\n")
    code, _, err = run_cli(capsys, "validate", "--input", str(bad))
    assert code == 1
    assert "header" in err


def test_bad_k_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", DEMO, "--k", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_k_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", DEMO])
    assert exc.value.code == 2
    capsys.readouterr()


def _usage_error(argv):
    """stderr and exit code of main(argv), which must end in a usage error."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    return err.getvalue(), exc.value.code


def test_reused_parser_gives_the_same_usage_errors(capsys):
    usage_errors = [
        ["solve", "--input", DEMO, "--k", "0"],
        ["solve", "--input", DEMO],
        ["schedule", "--input", DEMO],
        ["network", "--input", DEMO, "--dump", "xml"],
    ]
    first = [_usage_error(argv) for argv in usage_errors]
    for argv, (err, code) in zip(usage_errors, first):
        # a process of its own builds its parser afresh
        proc = subprocess.run([sys.executable, "-m", "sessionpick", *argv],
                              capture_output=True, text=True, timeout=60)
        assert (proc.stderr, proc.returncode) == (err, code)
        assert code == 2 and err.startswith("usage: sessionpick")
    for _ in range(3):
        for argv, expected in zip(usage_errors, first):
            assert run_cli(capsys, "solve", "--input", DEMO, "--k", "2")[0] == 0
            assert _usage_error(argv) == expected
            assert run_cli(capsys, "validate", "--input", DEMO)[0] == 0
    assert _build_parser.cache_info().misses == 1


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "cliques", "--input", DEMO,
                           "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["cliques"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sessionpick", "solve", "--input", DEMO, "--k", "1"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total_weight"] == 20


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # both cost start-up time on every CLI call and the records need neither
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, sessionpick.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("golden,argv", [
    ("solve_demo10_k1.json", ["solve", "--input", DEMO, "--k", "1"]),
    ("solve_demo10_k2.json", ["solve", "--input", DEMO, "--k", "2"]),
    ("solve_three_channels_k1.json", ["solve", "--input", THREE, "--k", "1"]),
    ("solve_three_channels_k2.json", ["solve", "--input", THREE, "--k", "2"]),
    ("solve_three_channels_k3.json", ["solve", "--input", THREE, "--k", "3"]),
    ("network_demo10_k2.json", ["network", "--input", DEMO, "--k", "2", "--dump", "json"]),
    ("network_demo10_k2.dot", ["network", "--input", DEMO, "--k", "2", "--dump", "dot"]),
    ("cliques_demo10.json", ["cliques", "--input", DEMO]),
])
def test_output_matches_golden(capsys, golden, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("field,value", [
    ("k", "x"),
    ("sessions", "not a list"),
    ("sessions", [1]),
    ("sessions", [{"slots": "nope"}]),
    ("sessions", [{"slots": [{"slot_id": ["I1"]}]}]),
    ("total_weight", "abc"),
], ids=["k-string", "sessions-string", "session-number", "slots-string", "slot_id-list",
        "total_weight-string"])
def test_check_malformed_solution_is_one_error_line(tmp_path, capsys, field, value):
    solution = tmp_path / "sol.json"
    run_cli(capsys, "solve", "--input", DEMO, "--k", "2", "--output", str(solution))
    data = json.loads(solution.read_text())
    data[field] = value
    solution.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "check", "--input", DEMO, str(solution))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("k", [0, -3])
def test_check_rejects_file_k_below_one(tmp_path, capsys, k):
    solution = tmp_path / "sol.json"
    solution.write_text(json.dumps({"k": k, "sessions": []}))
    code, out, err = run_cli(capsys, "check", "--input", DEMO, str(solution))
    assert (code, out) == (1, "")
    assert err == f"error: {solution}: k must be >= 1, got {k}\n"


def test_check_non_utf8_solution_is_one_error_line(tmp_path, capsys):
    solution = tmp_path / "sol.json"
    solution.write_bytes(b'\xff\xfe{"sessions": []}')
    code, out, err = run_cli(capsys, "check", "--input", DEMO, str(solution))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["solve", "--input", DEMO, "--k", "2"],
    ["network", "--input", DEMO, "--k", "2", "--dump", "dot"],
], ids=["solve", "network-dot"])
def test_output_into_missing_directory_is_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "no" / "such" / "dir" / "out"
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}")
    assert not target.exists()


def test_csv_with_byte_order_mark_solves_like_plain(tmp_path, capsys):
    bom = tmp_path / "demo10_bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "demo10.csv").read_bytes())
    code, out, _ = run_cli(capsys, "solve", "--input", str(bom), "--k", "2")
    assert code == 0
    assert out == (GOLDEN / "solve_demo10_k2.json").read_text()


@pytest.mark.parametrize("name,schedule,solution", [
    ("long_field.csv", HEADER + b"A," + b"x" * 200_000 + b",01:00,02:00,1\n", None),
    ("deep.json", b'{"slots": ' + b"[" * DEEP + b"]" * DEEP + b"}", None),
    ("huge_viewers.json", b'{"slots": [{"channel": "A", "title": "x", "start": "01:00", '
                          b'"end": "02:00", "viewers": ' + b"9" * 5001 + b"}]}", None),
    ("huge_total.json", b'{"slots": [{"channel": "A", "title": "x", "start": "01:00", '
                        b'"end": "02:00", "viewers": ' + b"9" * 4300 + b'}, {"channel": "A", '
                        b'"title": "y", "start": "02:00", "end": "03:00", "viewers": '
                        + b"9" * 4300 + b"}]}", None),
    ("demo10.csv", (FIXTURES / "demo10.csv").read_bytes(), b"[" * DEEP + b"]" * DEEP),
], ids=["csv-200k-field", "json-deep-schedule", "json-5001-digit-viewers",
        "json-4301-digit-total", "check-deep-solution"])
def test_oversized_or_deep_input_is_one_error_line(tmp_path, capsys, name, schedule,
                                                   solution):
    source = tmp_path / name
    source.write_bytes(schedule)
    argv = ["solve", "--input", str(source), "--k", "2"]
    if solution is not None:
        sol = tmp_path / "sol.json"
        sol.write_bytes(solution)
        argv = ["check", "--input", str(source), str(sol)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("command", ["solve", "network"])
def test_empty_schedule_is_one_error_line(tmp_path, capsys, command):
    source = tmp_path / "empty.csv"
    source.write_bytes(HEADER)
    code, out, err = run_cli(capsys, command, "--input", str(source), "--k", "2")
    assert code == 1
    assert out == ""
    assert err == "error: no intervals, nothing to schedule\n"


# characters that json.dumps writes as a short escape, a \uXXXX escape, a
# surrogate pair or as they are, and whitespace for parsing to strip
_TRICKY = st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", " ", "é", "\u2028",
                           "\U0001f4fa", "\ud800", "\udfff", "/"]) | st.characters()
_slot_fields = st.tuples(st.text(_TRICKY, max_size=4), st.text(_TRICKY, max_size=4),
                         st.integers(0, 1439), st.integers(1, 240),
                         st.integers(0, 10**30) | st.integers(0, 9))


@settings(max_examples=150, deadline=None)
@given(fields=st.lists(_slot_fields, min_size=1, max_size=8), k=st.integers(1, 10))
def test_solve_output_matches_reference(fields, k):
    # the index keeps titles unique and the letters keep names non-empty
    records = [{"channel": "c" + channel, "title": f"t{i}|{title}",
                "start": format_time(start), "end": format_time(min(start + length, 1440)),
                "viewers": viewers}
               for i, (channel, title, start, length, viewers) in enumerate(fields)]
    source = json.dumps({"slots": records}).encode()
    schedule = parse_schedule(source, "json")
    inst = to_intervals(schedule)
    payload = reference_solution_payload(solve_mwkc(inst, k), schedule, inst)
    table = io.StringIO()
    with contextlib.redirect_stderr(table):
        reference_session_table(payload)
    issues = "".join(f"{i.severity}: {i.message}\n" for i in validate_schedule(schedule))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "schedule.json"
        path.write_bytes(source)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", "--input", str(path), "--k", str(k)])
    assert code == 0
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"
    assert err.getvalue() == issues + table.getvalue()


def _quiet_main(argv):
    """main(argv) with its stdout and stderr swallowed; SystemExit counts as
    its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


# rows that sometimes parse, so the fuzz also reaches the solver
_csv_like = st.text(alphabet="0123456789:,-_ \n\"ABx", max_size=80).map(str.encode)
_json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=8,
)


def _or_any(shaped):
    """Values shaped like part of a solution file, or any JSON value."""
    return shaped | _json_value


# solution files whose every level may be malformed, so the fuzz reaches the
# per-session and per-slot checks as well as the top-level ones
_slot_like = st.fixed_dictionaries({}, optional={
    "slot_id": _or_any(st.sampled_from(["I1", "I2", "I3", "A6"])),
})
_session_like = st.fixed_dictionaries({}, optional={
    "weight": _or_any(st.integers()),
    "slots": _or_any(st.lists(_slot_like, min_size=1, max_size=4)),
})
_solution_like = st.fixed_dictionaries({}, optional={
    "k": _or_any(st.integers(min_value=-1, max_value=4)),
    "total_weight": _or_any(st.integers()),
    "sessions": _or_any(st.lists(_session_like, min_size=1, max_size=3)),
}).map(lambda value: json.dumps(value).encode())


@settings(max_examples=150, deadline=None)
@given(body=st.binary(max_size=200) | _csv_like, after_header=st.booleans(),
       fmt=st.sampled_from(["csv", "json"]))
def test_fuzz_solve_exits_cleanly(body, after_header, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "schedule"
        source.write_bytes((HEADER if after_header else b"") + body)
        for k in ("1", "2", "3"):
            code = _quiet_main(["solve", "--input", str(source), "--format", fmt, "--k", k])
            assert code in (0, 1, 2)


@settings(max_examples=150, deadline=None)
@given(solution=st.binary(max_size=200) | _solution_like)
def test_fuzz_check_exits_cleanly(solution):
    with tempfile.TemporaryDirectory() as tmp:
        sol = Path(tmp) / "sol.json"
        sol.write_bytes(solution)
        assert _quiet_main(["check", "--input", DEMO, str(sol)]) in (0, 1, 2)


# schedule fields that parse, and ones that break each check of the parsers
_field = st.sampled_from(["A", " B ", "x", "y", " x", '"x"', '"a,b"', '""', '"', "\x00",
                          "01:00", "9:30", "24:00", "25:00", "9:60", "", " ", "0", "7", "-1",
                          "+5", "1.0", "\u0663", "9" * 4400, "\u00e9"])
_BIG = "@big@"  # json.dumps refuses an int over the digit limit, so it goes in as text
_good_slots = st.lists(
    st.tuples(st.sampled_from(["A", "B", " C "]), st.sampled_from(["x", "y", "z", "w", "v"]),
              st.sampled_from(["01:00", "9:30"]), st.sampled_from(["10:45", "24:00"]),
              st.sampled_from(["0", "7", "42"])),
    max_size=5, unique_by=lambda row: row[1])
_csv_file = st.builds(
    lambda header, rows, bad, tail: "\n".join(
        (["channel,title,start,end,viewers"] if header else [])
        + [",".join(row) for row in rows + bad]).encode() + tail,
    st.sampled_from([True, True, True, False]), _good_slots,
    st.lists(st.lists(_field, min_size=3, max_size=6), max_size=1),
    st.sampled_from([b"", b"\n", b"\r\n", b"\n", b"\xff\xfe"]))
_json_file = st.builds(
    lambda rows, bad: json.dumps({"slots": [dict(zip(CSV_HEADER, row[:4] + (int(row[4]),)))
                                            for row in rows] + bad})
    .replace(f'"{_BIG}"', "9" * 4400).encode(),
    _good_slots,
    st.lists(st.fixed_dictionaries({}, optional=dict.fromkeys(
        CSV_HEADER, _field | st.integers(-2, 9) | st.none() | st.booleans() | st.just(1.5)
        | st.just(_BIG) | st.lists(st.just("x"), max_size=1)))
        | st.sampled_from([1, "x", None, []]), max_size=1))


@st.composite
def cli_calls(draw):
    """A call of any subcommand with any of its flags, on a schedule and a
    solution file that may be malformed at any level."""
    command = draw(st.sampled_from(["validate", "cliques", "network", "solve", "oracle",
                                    "check"]))
    fmt = draw(st.sampled_from(["csv", "json", "bytes", "demo10"]))
    schedule = draw({"csv": _csv_file, "json": _json_file, "bytes": st.binary(max_size=80),
                     "demo10": st.just(Path(DEMO).read_bytes())}[fmt])
    argv = [command, "--input", "schedule.json" if fmt == "json" else "schedule.csv"]
    if draw(st.sampled_from([False, False, False, True])):
        argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    if command != "validate" and draw(st.booleans()):
        argv += ["--exclude", draw(st.sampled_from(["x", "x,y", " , ", "nope"]))]
    if command in ("network", "solve", "oracle", "check") and draw(
            st.sampled_from([True, True, True, False])):
        argv += ["--k", draw(st.sampled_from(["1", "3", "0", str(10**20)]))]
    if command == "network" and draw(st.booleans()):
        argv += ["--dump", draw(st.sampled_from(["dot", "json"]))]
    if draw(st.sampled_from([False, False, False, True])):
        argv += ["--output", draw(st.sampled_from(["out.json", "missing/out.json"]))]
    solution = None
    if command == "check":
        solution = draw(st.binary(max_size=80) | _solution_like)
        argv.append("solution.json")
    return argv, schedule, solution


@settings(max_examples=300, deadline=None)
@given(call=cli_calls())
def test_fuzz_every_command_exits_cleanly(call):
    argv, schedule, solution = call
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("schedule.csv", "schedule.json"):
            (Path(tmp) / name).write_bytes(schedule)
        if solution is not None:
            (Path(tmp) / "solution.json").write_bytes(solution)
        argv = [str(Path(tmp) / arg) if arg.endswith((".csv", ".json")) else arg
                for arg in argv]
        assert _quiet_main(argv) in (0, 1, 2)


class _FailingStream(io.StringIO):
    """A text stream whose write, or whose flush, raises exc."""

    def __init__(self, exc: OSError, on: str):
        super().__init__()
        self.exc = exc
        self.on = on

    def write(self, text):
        if self.on == "write":
            raise self.exc
        return super().write(text)

    def flush(self):
        if self.on == "flush":
            raise self.exc


_WRITE_ERRORS = [BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)),
                 OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))]
_PRINTING_CALLS = [["solve", "--input", DEMO, "--k", "2"], ["validate", "--input", DEMO],
                   ["network", "--input", DEMO, "--k", "2", "--dump", "dot"]]


@pytest.mark.parametrize("exc", _WRITE_ERRORS, ids=["EPIPE", "ENOSPC"])
@pytest.mark.parametrize("on", ["write", "flush"])
@pytest.mark.parametrize("argv", _PRINTING_CALLS, ids=["solve", "validate", "network"])
def test_failed_stdout_is_one_error_line(exc, on, argv):
    before = os.fstat(1)
    err = io.StringIO()
    with contextlib.redirect_stdout(_FailingStream(exc, on)), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2
    assert err.getvalue().endswith(f"error: cannot write output: {exc}\n")
    assert err.getvalue().count("error:") == 1
    after = os.fstat(1)  # a stream that is not this process's fd 1 leaves fd 1 alone
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)


@pytest.mark.parametrize("exc", _WRITE_ERRORS, ids=["EPIPE", "ENOSPC"])
@pytest.mark.parametrize("argv,stdout", [
    (_PRINTING_CALLS[0], (GOLDEN / "solve_demo10_k2.json").read_text()),
    (_PRINTING_CALLS[1], '{\n  "issues": []\n}\n'),
    (["solve", "--input", "missing.csv", "--k", "2"], ""),
], ids=["solve", "validate", "error-line"])
def test_failed_stderr_keeps_stdout_and_exits_2(exc, argv, stdout):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(_FailingStream(exc, "write")):
        code = main(argv)
    assert code == 2
    assert out.getvalue() == stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_file_object_leaves_fd_1_alone():
    before = os.fstat(1)
    err = io.StringIO()
    full = open("/dev/full", "w")
    try:
        with contextlib.redirect_stdout(full), contextlib.redirect_stderr(err):
            code = main(["solve", "--input", DEMO, "--k", "2"])
    finally:
        with contextlib.suppress(OSError):  # the unwritten text fails the flush again
            full.close()
    assert code == 2
    assert err.getvalue().endswith("error: cannot write output: [Errno 28] No space left on "
                                   "device\n")
    after = os.fstat(1)
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)


def _child_env(unbuffered: bool) -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _run_child(stdout, unbuffered: bool, *argv: str) -> subprocess.CompletedProcess:
    """argv, or a solve of demo10, in a child under -X dev -W error, with its
    stdout on the given descriptor."""
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "sessionpick",
         *(argv or ["solve", "--input", DEMO, "--k", "2"])],
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
        env=_child_env(unbuffered))


def _assert_one_clean_error(proc: subprocess.CompletedProcess, message: str) -> None:
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert proc.stderr.endswith(f"error: cannot write output: {message}\n")
    assert proc.stderr.count("error:") == 1


def _closed_pipe_run(unbuffered: bool, *argv: str) -> subprocess.CompletedProcess:
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes: every write is EPIPE
    try:
        return _run_child(write_end, unbuffered, *argv)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_pipe_exits_2_without_traceback(unbuffered):
    _assert_one_clean_error(_closed_pipe_run(unbuffered), "[Errno 32] Broken pipe")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_help_into_closed_pipe_exits_without_traceback(unbuffered):
    # argparse drops a failed write of its help; a buffered one fails at the flush
    proc = _closed_pipe_run(unbuffered, "--help")
    assert proc.returncode == (0 if unbuffered else 2), proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_full_stdout_device_exits_2_without_traceback(unbuffered):
    with open("/dev/full", "wb") as full:
        proc = _run_child(full, unbuffered)
    _assert_one_clean_error(proc, "[Errno 28] No space left on device")


def test_every_command_runs_clean_with_warnings_as_errors(tmp_path):
    solution = tmp_path / "solution.json"
    calls = [
        ["validate", "--input", DEMO],
        ["solve", "--input", DEMO, "--k", "2", "--output", str(solution)],
        ["cliques", "--input", THREE],
        ["network", "--input", DEMO, "--k", "2", "--dump", "dot"],
        ["oracle", "--input", DEMO, "--k", "2"],
        ["check", "--input", DEMO, str(solution)],
    ]
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "sessionpick", *argv],
            capture_output=True, text=True, timeout=60, env=_child_env(False))
        assert proc.returncode == 0, (argv, proc.stderr)
        assert "Warning" not in proc.stderr, (argv, proc.stderr)
