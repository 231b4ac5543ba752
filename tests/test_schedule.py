import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sessionpick import (
    IntervalInstance,
    ProgrammeSlot,
    ScheduleError,
    Vertex,
    parse_schedule,
    serialize_schedule,
    solve_mwkc,
    to_intervals,
    validate_schedule,
)
from sessionpick import schedule
from sessionpick.schedule import CSV_HEADER, format_time, parse_time

from conftest import reference_parse_schedule, reference_parse_time, reference_validate_schedule


def test_timepoint_parse():
    assert parse_time("10:00") == 600
    assert parse_time("00:00") == 0
    assert parse_time("24:00") == 1440
    assert parse_time("9:30") == 570
    assert format_time(parse_time("08:05")) == "08:05"
    assert parse_time("23:59") < parse_time("24:00")


@pytest.mark.parametrize("text", ["24:01", "25:00", "9:99", "abc", "10", "10:0x", "-1:00", "",
                                  "1:5", "10:5", "\u0661\u0660:\u0660\u0660", "\u00b2:00"])
def test_timepoint_rejects_garbage(text):
    with pytest.raises(ValueError, match="bad time .* expected HH:MM"):
        parse_time(text)


def _time_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def test_parse_time_matches_reference_on_every_short_string():
    checked = accepted = 0
    for length in range(6):
        for chars in itertools.product("0123456789:", repeat=length):
            text = "".join(chars)
            outcome = _time_outcome(parse_time, text)
            assert outcome == _time_outcome(reference_parse_time, text), text
            checked += 1
            accepted += isinstance(outcome, int)
    assert (checked, accepted) == (177156, 2041)


_padding = st.text(alphabet=" \t\n\r\x0b\x0c\x1c\u00a0\u2003", max_size=3)
_time_like = st.one_of(
    st.text(),
    st.text(alphabet="0123456789:\t \u00a0\u0663\u00b2", max_size=6),
    st.from_regex(r"[0-9]{1,2}:[0-9]{2}", fullmatch=True),
)


@settings(max_examples=300, deadline=None)
@given(lead=_padding, core=_time_like, trail=_padding)
@example(lead="\t", core="09:30", trail="\u00a0")
@example(lead="", core="\u0663:00", trail="")
@example(lead="", core="\u00b2:00", trail="")
@example(lead=" ", core="24:00", trail="\n")
def test_parse_time_matches_reference(lead, core, trail):
    text = lead + core + trail
    assert _time_outcome(parse_time, text) == _time_outcome(reference_parse_time, text)


def test_parse_csv_single_row():
    src = "channel,title,start,end,viewers\nNatGeo,Mission Everest,10:00,10:30,8\n"
    sched = parse_schedule(src, "csv")
    assert len(sched) == 1
    slot = sched[0]
    assert slot.channel == "NatGeo"
    assert slot.title == "Mission Everest"
    assert slot.slot_id == "Mission Everest"
    assert slot.start == 600
    assert slot.end == 630
    assert slot.viewers == 8


def test_parse_csv_accepts_bytes_and_blank_lines():
    src = b"channel,title,start,end,viewers\n\nA,x,01:00,02:00,1\n\n"
    sched = parse_schedule(src, "csv")
    assert [s.title for s in sched] == ["x"]
    assert parse_schedule(b"\n \n" + src, "csv") == sched


def test_parse_csv_bare_cr_line_endings():
    lf = "channel,title,start,end,viewers\nA,x,01:00,02:00,1\n"
    cr = "channel,title,start,end,viewers\rA,x,01:00,02:00,1\r"
    assert parse_schedule(cr, "csv") == parse_schedule(lf, "csv")
    assert parse_schedule(lf.replace("\n", "\r\n"), "csv") == parse_schedule(lf, "csv")


_BOM_SOURCES = {
    "csv": "channel,title,start,end,viewers\nA,x,01:00,02:00,1\n",
    "json": '{"slots": [{"channel": "A", "title": "x", "start": "01:00", "end": "02:00",'
            ' "viewers": 1}]}',
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
def test_parse_str_and_bytes_drop_one_leading_bom(fmt, bom):
    text = bom + _BOM_SOURCES[fmt]
    expected = (ProgrammeSlot("A", "x", 60, 120, 1),)
    assert parse_schedule(text, fmt) == expected
    assert parse_schedule(text.encode(), fmt) == expected


def test_parse_csv_empty_input_is_empty_schedule():
    assert len(parse_schedule("", "csv")) == 0


@pytest.mark.parametrize("src,fragment", [
    ("channel,name,start,end,viewers\n", "header"),
    ("channel,title,start,end,viewers\nA,x,01:00\n", "line 2"),
    ("\nchannel,title,start,end,viewers\nA,x,01:00\n", "line 3"),
    ("channel,title,start,end,viewers\nA,x,01:00,02:00,-1\n", "viewers"),
    ("channel,title,start,end,viewers\nA,x,01:00,02:00,3.5\n", "viewers"),
    ("channel,title,start,end,viewers\nA,x,01:00,02:00,1_0\n", "viewers"),
    ("channel,title,start,end,viewers\nA,x,01:00,02:00,\u0663\n", "viewers"),
    ("channel,title,start,end,viewers\nA,x,01:00,02:00,+5\n", "viewers"),
    ("channel,title,start,end,viewers\nA,x,1:5,02:00,1\n", "time"),
    ("channel,title,start,end,viewers\nA,x,01:00,02:00,1\nB,x,03:00,04:00,1\n", "duplicate"),
    # a quoted title spans lines 2-3, so the next row starts on line 4
    ('channel,title,start,end,viewers\nA,"x\ny",01:00,02:00,1\nB,z,01:00\n', "line 4: expected 5"),
    ('channel,title,start,end,viewers\nA,"x\ny",01:00,02:00,1\nB,"x\ny",03:00,04:00,1\n',
     "line 4: duplicate"),
    # CRLF keeps the count: the quoted title still spans lines 2-3
    ('channel,title,start,end,viewers\r\nA,"x\r\ny",01:00,02:00,1\r\nB,z,01:00\r\n',
     "line 4: expected 5"),
    ("channel,title,start,end,viewers\rA,x,01:00\r", "line 2: expected 5"),
    ("channel,title,start,end,viewers\nA,x,25:00,26:00,1\n", "time"),
    ("channel,title,start,end,viewers\nA,,01:00,02:00,1\n", "title"),
    # two faults in one row (or two rows): the message names the one checked first
    ("channel,title,start,end,viewers\nA,x,1:5,02:00,x1\n",
     "line 2: viewers 'x1' is not a non-negative integer"),
    ("channel,title,start,end,viewers\n ,x,1:5,02:00,1\n", "line 2: empty channel name"),
    ("channel,title,start,end,viewers\nA, ,01:00,25:00,1\n", "line 2: empty title"),
    ("channel,title,start,end,viewers\nA,x,1:5,25:00,1\n",
     "line 2: bad time '1:5', expected HH:MM up to 24:00"),
    ("channel,title,start,end,viewers\nA,x,01:00,02:00,1\nB,x,01:00,2:0,1\n",
     "line 3: bad time '2:0', expected HH:MM up to 24:00"),
])
def test_parse_csv_errors(src, fragment):
    with pytest.raises(ScheduleError) as exc:
        parse_schedule(src, "csv")
    assert fragment in str(exc.value)


def test_parse_json_basic():
    src = json.dumps({"slots": [
        {"channel": "A", "title": "x", "start": "01:00", "end": "02:00", "viewers": 4},
    ]})
    sched = parse_schedule(src, "json")
    assert sched[0].viewers == 4


@pytest.mark.parametrize("payload", [
    "[1,2,3]",
    '{"slots": "nope"}',
    '{"slots": [{"channel": "A", "title": "x", "start": "01:00", "end": "02:00"}]}',
    '{"slots": [{"channel": "A", "title": "x", "start": "01:00", "end": "02:00", "viewers": true}]}',
    '{"slots": [{"channel": 7, "title": "x", "start": "01:00", "end": "02:00", "viewers": 1}]}',
    "not json at all",
])
def test_parse_json_errors(payload):
    with pytest.raises(ScheduleError):
        parse_schedule(payload, "json")


@pytest.mark.parametrize("slot,message", [
    # a negative viewers count is checked before the bad start time
    ({"channel": "A", "title": "x", "start": "1:5", "end": "02:00", "viewers": -1},
     "slot 0: viewers must be >= 0, got -1"),
])
def test_parse_json_error_messages(slot, message):
    with pytest.raises(ScheduleError) as exc:
        parse_schedule(json.dumps({"slots": [slot]}), "json")
    assert str(exc.value) == message


def _parse_outcome(parse, source, fmt):
    try:
        slots = parse(source, fmt)
    except ScheduleError as exc:
        return str(exc)
    assert all(type(slot) is ProgrammeSlot for slot in slots)
    return slots


_OVER_DIGIT_LIMIT = "9" * 4301  # int() refuses more than 4300 digits


@st.composite
def csv_sources(draw):
    """CSV text, or its UTF-8 bytes: valid rows, blank lines and up to two faults."""
    eols = st.sampled_from(["\n", "\r\n", "\r"])
    eol = draw(eols)
    kinds = draw(st.lists(st.sampled_from(["row"] * 4 + ["blank", "space", "quoted"]),
                          max_size=8))
    header = draw(st.sampled_from(["channel,title,start,end,viewers",
                                   " Channel ,TITLE, start,end ,viewers"]))
    faults = st.sampled_from(["header", "fields", "time", "viewers", "dup", "channel", "title"])
    for at, fault in draw(st.lists(st.tuples(st.integers(min_value=0, max_value=7), faults),
                                   max_size=2)):
        if fault == "header":
            header = draw(st.sampled_from(["channel,name,start,end,viewers",
                                           "channel,title,start,end"]))
        elif kinds:
            kinds[at % len(kinds)] = fault
    lines = draw(st.lists(st.sampled_from(["", " ", "\t "]), max_size=2)) + [header]
    titles: list[str] = []
    for i, kind in enumerate(kinds):
        if kind == "blank":
            lines.append("")
            continue
        if kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", '" "', "\x0c", "\x1c\x85"])))
            continue
        title = f"t{i}" + draw(st.sampled_from(["", "\x00", "\x0b", "\u2028", "\x85x"]))
        fields = [draw(st.sampled_from(["A", " B", "C ", "\x0bD"])), title,
                  draw(st.sampled_from(["01:00", " 9:30", "23:59 "])),
                  draw(st.sampled_from(["02:00", "24:00", "0:00"])),
                  draw(st.sampled_from(["0", "7", " 12 ", "0042"]))]
        if kind == "quoted":  # a title over several lines, with a comma or a quote, or plain
            title = draw(st.sampled_from([f"t{i}{eol}x", f"t{i}\r\nx\ny", f"t{i},z",
                                          f't{i}""q', f"t{i}"]))
            fields[1] = f'"{title}"'
        elif kind == "fields":
            fields = draw(st.sampled_from([fields[:1], fields[:4], fields + ["x"]]))
        elif kind == "time":
            fields[draw(st.sampled_from([2, 3]))] = draw(st.sampled_from(
                ["1:5", "25:00", "24:01", "9:60", "\u0663:00", ""]))
        elif kind == "viewers":
            fields[4] = draw(st.sampled_from(["+5", "1_0", "\u0663", _OVER_DIGIT_LIMIT, "-1", ""]))
        elif kind == "dup" and titles:  # equal to an earlier title once stripped
            fields[1] = f" {draw(st.sampled_from(titles))} "
        elif kind in ("channel", "title"):
            fields[kind == "title"] = " "
        titles.append(title)
        lines.append(",".join(fields))
    if draw(st.booleans()):  # mixed line endings
        lines = [line + draw(eols) for line in lines[:-1]] + lines[-1:]
        eol = ""
    text = draw(st.sampled_from(["", "\ufeff", "\ufeff\ufeff"])) + eol.join(lines)
    text += draw(st.sampled_from(["", "\n", "\r\n", "\r"]))
    return text.encode() if draw(st.booleans()) else text


@settings(max_examples=400, deadline=None)
@given(source=csv_sources())
@example(source="\n \r\n\tchannel,title,start,end,viewers\nA, x ,01:00,02:00,1\n"
                "B,x,03:00,04:00,2\n")
@example(source='channel,title,start,end,viewers\nA,"x",01:00,02:00,1\n')
@example(source=f"channel,title,start,end,viewers\nA,x,01:00,02:00,{_OVER_DIGIT_LIMIT}\n")
@example(source="channel,title,start,end,viewers\nA,x,01:00,02:00,\u0663\n")
@example(source=f"channel,title,start,end,viewers\nA,{'x' * 131072},01:00,02:00,1\n")
@example(source=f"channel,title,start,end,viewers\nA,{'x' * 131073},01:00,02:00,1\n")
@example(source=f"channel,title,start,end,viewers\n{' ' * 131073}\nA,x,01:00,02:00,1\n")
def test_parse_csv_matches_reference(source):
    assert (_parse_outcome(parse_schedule, source, "csv")
            == _parse_outcome(reference_parse_schedule, source, "csv"))


class _Walked(Exception):
    """Raised by a stand-in for the row walk, so a test sees that it was reached."""


def _walked(text):
    raise _Walked(text)


@st.composite
def unquoted_csv_sources(draw):
    """Valid unquoted CSV, as text or UTF-8 bytes: a padded header, padded
    fields, LF, CRLF or bare-CR line ends, blank and whitespace-only lines
    anywhere, and perhaps a BOM."""
    pad = st.sampled_from(["", " ", "\t", " \t "])
    blank = st.lists(st.sampled_from(["", " ", "\t", "\x0c", "\x1c\x85"]), max_size=2)
    eols = st.sampled_from(["\n", "\r\n", "\r"])
    header = draw(st.sampled_from([CSV_HEADER, ["Channel", "TITLE", "Start", "END", "Viewers"]]))
    lines = draw(blank) + [",".join(draw(pad) + name + draw(pad) for name in header)]
    times = st.integers(0, 1440).map(format_time) | st.sampled_from(["0:00", "7:05", "9:30"])
    viewers = st.integers(0, 10**30).map(str) | st.sampled_from(["0042", "9" * 4300])
    for i in range(draw(st.integers(min_value=0, max_value=8))):
        fields = [draw(st.sampled_from(["A", "chB", "\u00e9\u65e5", "x y"])),
                  f"t{i}" + draw(st.sampled_from(["", "\x00", "\x0b", "\u2028", "\x85x"])),
                  draw(times), draw(times), draw(viewers)]
        lines += draw(blank) + [",".join(draw(pad) + field + draw(pad) for field in fields)]
    lines += draw(blank)
    text = draw(st.sampled_from(["", "\ufeff"])) + "".join(line + draw(eols) for line in lines)
    if draw(st.booleans()):  # no line end after the last line
        text = text.rstrip("\r\n")
    return text.encode() if draw(st.booleans()) else text


@settings(max_examples=300, deadline=None)
@given(source=unquoted_csv_sources())
@example(source="channel,title,start,end,viewers")  # a header alone is an empty schedule
@example(source="channel,title,start,end,viewers\nA,x\x00,01:00,02:00,1\n")  # NUL in a title
def test_unquoted_csv_never_reaches_the_row_walk(source):
    expected = reference_parse_schedule(source, "csv")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schedule, "_walk_csv", _walked)
        assert parse_schedule(source, "csv") == expected


_FAULTY_ROWS = {
    "quoted": 'A,"x",01:00,02:00,1', "quote-inside": 'A,x"y,01:00,02:00,1',
    "4-fields": "A,x,01:00,02:00",
    "6-fields": "A,x,01:00,02:00,1,2", "over-field-limit": "A," + "x" * 131073 + ",01:00,02:00,1",
    "bad-start": "A,x,25:00,02:00,1", "bad-end": "A,x,01:00,9:60,1",
    "empty-start": "A,x,,02:00,1", "negative-viewers": "A,x,01:00,02:00,-1",
    "signed-viewers": "A,x,01:00,02:00,+5", "empty-viewers": "A,x,01:00,02:00,",
    "float-viewers": "A,x,01:00,02:00,1.0", "non-ascii-viewers": "A,x,01:00,02:00,\u0663",
    "over-digit-limit": "A,x,01:00,02:00," + _OVER_DIGIT_LIMIT,
    "empty-channel": " ,x,01:00,02:00,1", "empty-title": "A, ,01:00,02:00,1",
    "duplicate-title": "A,x,01:00,02:00,1\nB, x ,03:00,04:00,2",
}
_WALKED_SOURCES = {
    **{name: f"channel,title,start,end,viewers\n{row}\n" for name, row in _FAULTY_ROWS.items()},
    "empty": "", "blank": " \n\t\r\n", "bad-header": "channel,name,start,end,viewers\n",
    "4-field-header": "channel,title,start,end\nA,x,01:00,02:00\n",
}


@pytest.mark.parametrize("source", _WALKED_SOURCES.values(), ids=_WALKED_SOURCES.keys())
def test_quoted_csv_and_each_fault_reach_the_row_walk(source):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schedule, "_walk_csv", _walked)
        with pytest.raises(_Walked):
            parse_schedule(source, "csv")


@st.composite
def json_sources(draw):
    """A JSON schedule of valid records and up to two faulty ones."""
    n = draw(st.integers(min_value=0, max_value=6))
    kinds = st.sampled_from(["type", "negative", "missing", "object", "time", "dup", "channel",
                             "title"])
    faults = dict(draw(st.lists(st.tuples(st.integers(min_value=0, max_value=5), kinds),
                                max_size=2)))
    records = []
    for i in range(n):
        rec = {"channel": draw(st.sampled_from(["A", " B "])), "title": f"t{i}",
               "start": draw(st.sampled_from(["01:00", " 7:15"])),
               "end": draw(st.sampled_from(["02:00", "24:00"])),
               "viewers": draw(st.integers(min_value=0, max_value=50))}
        fault = faults.get(i)
        if fault == "type":
            rec[draw(st.sampled_from(CSV_HEADER))] = draw(st.sampled_from(
                [7, "5", True, 1.0, None, ["x"]]))
        elif fault == "negative":
            rec["viewers"] = -draw(st.integers(min_value=1, max_value=9))
        elif fault == "missing":
            for key in draw(st.lists(st.sampled_from(CSV_HEADER), min_size=1, max_size=2)):
                rec.pop(key, None)
        elif fault == "object":
            rec = draw(st.sampled_from([1, "x", [], None]))
        elif fault == "time":
            rec[draw(st.sampled_from(["start", "end"]))] = "1:5"
        elif fault == "dup":
            rec["title"] = " t0 "
        elif fault in ("channel", "title"):
            rec[fault] = " "
        records.append(rec)
    return json.dumps({"slots": records})


@settings(max_examples=400, deadline=None)
@given(source=json_sources())
@example(source=json.dumps({"slots": [
    {"channel": "A", "title": "x", "start": "01:00", "end": "02:00", "viewers": -1}, 7]}))
@example(source=json.dumps({"slots": [
    {"channel": "A", "title": "x", "start": "01:00", "end": "02:00", "viewers": True}]}))
def test_parse_json_matches_reference(source):
    assert (_parse_outcome(parse_schedule, source, "json")
            == _parse_outcome(reference_parse_schedule, source, "json"))


def test_parse_unknown_format():
    with pytest.raises(ValueError):
        parse_schedule("", "xml")


def _slot(channel, title, start, end, viewers=1):
    return ProgrammeSlot(channel, title, parse_time(start), parse_time(end), viewers)


def test_validate_clean_schedule():
    sched = (_slot("A", "x", "01:00", "02:00"),
             _slot("A", "y", "02:00", "03:00"))
    assert validate_schedule(sched) == []


def test_validate_flags_degenerate_slot():
    sched = (_slot("A", "x", "02:00", "02:00"),)
    issues = validate_schedule(sched)
    assert len(issues) == 1
    assert issues[0].severity == "ERROR"
    assert issues[0].slot_ids == ("x",)


def test_validate_flags_same_channel_overlap():
    sched = (_slot("A", "x", "01:00", "03:00"),
             _slot("A", "y", "02:00", "04:00"),
             _slot("B", "z", "02:00", "04:00"))
    issues = validate_schedule(sched)
    assert [i.severity for i in issues] == ["WARNING"]
    assert set(issues[0].slot_ids) == {"x", "y"}


def test_validate_ignores_cross_channel_and_touching():
    sched = (_slot("A", "x", "01:00", "03:00"),
             _slot("B", "y", "02:00", "04:00"),
             _slot("A", "z", "03:00", "05:00"))
    assert validate_schedule(sched) == []


@st.composite
def slot_sets(draw):
    """Slots of a few channels on a short day, so that they overlap often;
    unless clean, some have start >= end."""
    clean = draw(st.booleans())
    slots = []
    for i in range(draw(st.integers(min_value=0, max_value=10))):
        start = draw(st.integers(min_value=0, max_value=12))
        end = draw(st.integers(min_value=start + 1, max_value=14) if clean
                   else st.integers(min_value=0, max_value=14))
        slots.append(ProgrammeSlot(draw(st.sampled_from(["A", "B", "C"])), f"s{i}",
                                   start, end, 1))
    return tuple(slots)


def _slots(*triples):
    return tuple(ProgrammeSlot(channel, f"s{i}", start, end, 1)
                 for i, (channel, start, end) in enumerate(triples))


@settings(max_examples=400, deadline=None)
@given(sched=slot_sets())
@example(sched=_slots(("A", 0, 10), ("A", 2, 4), ("A", 3, 5)))  # nested
@example(sched=_slots(("A", 0, 3), ("A", 2, 5), ("A", 4, 7)))  # chained
@example(sched=_slots(("A", 0, 2), ("A", 2, 4), ("B", 1, 3), ("A", 4, 6)))  # touching
@example(sched=_slots(("A", 1, 3), ("A", 1, 2), ("A", 1, 3)))  # equal starts
@example(sched=_slots(("A", 3, 3), ("A", 0, 2), ("B", 5, 1), ("A", 1, 4)))  # errors first
def test_validate_matches_reference(sched):
    assert validate_schedule(sched) == reference_validate_schedule(sched)


def test_to_intervals_sorts_and_records_slot_ids():
    sched = (_slot("A", "late", "05:00", "06:00", 2),
             _slot("B", "b-early", "01:00", "02:00", 3),
             _slot("C", "a-early", "01:00", "02:00", 4))
    inst = to_intervals(sched)
    assert [inst.provenance[v.vertex_id] for v in inst.vertices] == \
        ["a-early", "b-early", "late"]
    assert [v.w for v in inst.vertices] == [4, 3, 2]
    assert inst.vertices[0].s == 60 and inst.vertices[0].f == 120


def test_to_intervals_exclusion():
    sched = (_slot("A", "x", "01:00", "02:00"),
             _slot("A", "y", "03:00", "04:00"))
    inst = to_intervals(sched, excluded={"x"})
    assert inst.n == 1
    assert inst.provenance[0] == "y"
    with pytest.raises(ValueError):
        to_intervals(sched, excluded={"nope"})


def test_to_intervals_rejects_degenerate():
    sched = (_slot("A", "x", "02:00", "02:00"),)
    with pytest.raises(ValueError, match="validate"):
        to_intervals(sched)


def test_to_intervals_names_first_bad_slot():
    sched = (_slot("A", "ok", "01:00", "02:00"),
             _slot("A", "late", "05:00", "04:00"),  # the first one with start >= end
             _slot("B", "early", "03:00", "03:00"))
    with pytest.raises(ValueError) as exc:
        to_intervals(sched)
    assert str(exc.value) == "slot 'late' has start >= end; validate first"
    # negative viewers are refused by the instance, named by vertex id
    sched = (ProgrammeSlot("A", "x", 300, 400, -1), ProgrammeSlot("B", "y", 60, 120, -2))
    with pytest.raises(ValueError) as exc:
        to_intervals(sched)
    assert str(exc.value) == "vertex 0 has negative weight"


@pytest.mark.parametrize("bad,message", [
    ({1: (0, 1, -1), 2: (5, 5, 1)}, "vertex 1 has negative weight"),
    ({1: (5, 5, 1), 2: (0, 1, -1)}, "vertex 1 has s >= f"),
    ({1: (6, 5, -1), 2: (0, 1, -1)}, "vertex 1 has s >= f"),  # both faults on one vertex
], ids=["weight-then-shape", "shape-then-weight", "both-on-one"])
def test_interval_instance_names_first_bad_vertex(bad, message):
    triples = {0: (0, 1, 1), 3: (2, 3, 1), **bad}
    vertices = tuple(Vertex(i, *triples[i]) for i in reversed(range(4)))  # ids out of order
    with pytest.raises(ValueError) as exc:
        IntervalInstance(vertices)
    assert str(exc.value) == message


def test_interval_instance_takes_any_iterable_of_records():
    records = [Vertex(1, 4, 5, 1), Vertex(0, 0, 1, 2)]
    for given in (records, iter(records), tuple(records)):
        inst = IntervalInstance(given)
        assert (inst.s, inst.f, inst.w) == ([0, 4], [1, 5], [2, 1])
    with pytest.raises(ValueError, match="^vertex ids must be dense 0..n-1$"):
        IntervalInstance(((0, 1, 2),))  # three fields, not four


def test_interval_instance_checks_ids_and_shape():
    with pytest.raises(ValueError):
        IntervalInstance((Vertex(1, 0, 1, 1),))  # ids must start at 0
    with pytest.raises(ValueError):
        IntervalInstance((Vertex(0, 5, 5, 1),))
    with pytest.raises(ValueError):
        IntervalInstance((Vertex(0, 0, 1, -2),))
    inst = IntervalInstance((Vertex(1, 4, 5, 1), Vertex(0, 0, 1, 2)))
    assert [v.vertex_id for v in inst.vertices] == [0, 1]
    assert inst.total_weight == 3


def test_serialize_csv_header_and_roundtrip_fixture(demo10_csv):
    sched = parse_schedule(demo10_csv.read_text(), "csv")
    out = serialize_schedule(sched, "csv")
    assert out.splitlines()[0] == "channel,title,start,end,viewers"
    assert parse_schedule(out, "csv") == sched


_titles = st.text(
    alphabet=st.sampled_from('abcXYZ ,"0'), min_size=1, max_size=8,
).filter(lambda t: t == t.strip())


@st.composite
def schedules(draw):
    bases = draw(st.lists(_titles, min_size=0, max_size=12))
    slots = []
    for i, base in enumerate(bases):
        start = draw(st.integers(min_value=0, max_value=1439))
        end = draw(st.integers(min_value=start + 1, max_value=1440))
        slots.append(ProgrammeSlot(
            channel=draw(st.sampled_from(["one", "two", "three"])),
            title=f"{base}{i}", start=start, end=end,
            viewers=draw(st.integers(min_value=0, max_value=999))))
    return tuple(slots)


@settings(max_examples=100, deadline=None)
@given(sched=schedules(), fmt=st.sampled_from(["csv", "json"]))
def test_serialize_parse_roundtrip(sched, fmt):
    parsed = parse_schedule(serialize_schedule(sched, fmt), fmt)
    assert parsed == sched
    assert all(slot.slot_id == slot.title for slot in parsed)


@settings(max_examples=100, deadline=None)
@given(sched=schedules(), k=st.integers(min_value=1, max_value=4))
def test_to_intervals_solves_like_its_vertex_records(sched, k):
    # to_intervals fills the columns straight from the slots; an instance
    # built from the Vertex records it gives back is the same instance
    inst = to_intervals(sched)
    again = IntervalInstance(inst.vertices, inst.provenance)
    assert (again.s, again.f, again.w) == (inst.s, inst.f, inst.w)
    if inst.n:
        assert solve_mwkc(again, k) == solve_mwkc(inst, k)
