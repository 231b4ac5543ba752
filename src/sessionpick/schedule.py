"""Programme schedule ingestion and normalization.

Reads channel schedules (CSV or JSON), validates them against the model
assumptions, and turns them into a weighted interval instance that the
rest of the library operates on. Times live on a single broadcast day at
minute resolution.
"""

from __future__ import annotations

import csv
import io
import json
from functools import cache
from itertools import repeat
from operator import and_, eq, ge, gt, itemgetter
from typing import NamedTuple

MINUTES_PER_DAY = 1440

CSV_HEADER = ["channel", "title", "start", "end", "viewers"]
_BY_START_END_ID = itemgetter(2, 3, 1)  # a ProgrammeSlot's (start, end, slot_id)


class ScheduleError(ValueError):
    """Raised when input data cannot be parsed into a schedule."""


@cache  # built on the first parse, so a process that parses no time never pays for it
def _times() -> dict[str, int]:
    """Every accepted spelling, H:MM and HH:MM up to 24:00, to its minutes since 00:00."""
    return {f"{hh}:{m:02d}": h * 60 + m for h in range(25) for hh in {str(h), f"{h:02d}"}
            for m in range(60) if h * 60 + m <= MINUTES_PER_DAY}


def parse_time(text: str) -> int:
    """Minutes since 00:00 of an H:MM or HH:MM time in ASCII digits, up to 24:00."""
    try:
        return _times()[text.strip()]
    except KeyError:
        raise ValueError(f"bad time {text!r}, expected HH:MM up to 24:00") from None


def format_time(minutes: int) -> str:
    """HH:MM for minutes since 00:00; 1440 is 24:00."""
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


class ProgrammeSlot(NamedTuple):
    channel: str
    title: str
    start: int  # minutes since 00:00
    end: int
    viewers: int

    @property
    def slot_id(self) -> str:
        """The title; the input formats carry no separate id column."""
        return self.title


class Vertex(NamedTuple):
    """One weighted interval. Open-overlap semantics: (s, f) as an open set."""

    vertex_id: int
    s: int
    f: int
    w: int


class IntervalInstance:
    """A set of weighted intervals with dense 0-based vertex ids.

    provenance maps vertex_id back to the slot_id it came from, when the
    instance was built from a schedule.
    """

    __slots__ = ("vertices", "provenance")

    def __init__(self, vertices: tuple[Vertex, ...],
                 provenance: dict[int, str] | None = None) -> None:
        ordered = tuple(sorted(vertices, key=itemgetter(0)))  # by vertex_id
        if [v.vertex_id for v in ordered] != list(range(len(ordered))):
            raise ValueError("vertex ids must be dense 0..n-1")
        # a loop of attribute loads: itemgetter takes a slow path on a tuple
        # subclass, so column checks with any(map(...)) cost more here
        for v in ordered:
            if v.s >= v.f:
                raise ValueError(f"vertex {v.vertex_id} has s >= f")
            if v.w < 0:
                raise ValueError(f"vertex {v.vertex_id} has negative weight")
        self.vertices = ordered
        self.provenance = provenance

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def total_weight(self) -> int:
        return sum(v.w for v in self.vertices)


class ValidationIssue(NamedTuple):
    severity: str  # "ERROR" or "WARNING"
    slot_ids: tuple[str, ...]
    message: str


def _parse_viewers(text: str) -> int:
    digits = text.strip()
    try:
        if digits.isascii() and digits.isdigit():
            return int(digits)
    except ValueError:  # longer than int()'s digit limit
        pass
    raise ScheduleError(f"viewers {text!r} is not a non-negative integer")


def _make_slot(channel: str, title: str, start: str, end: str, viewers: int,
               seen: set[str]) -> ProgrammeSlot:
    """Raises a ValueError that the caller prefixes with the slot's place."""
    channel = channel.strip()
    title = title.strip()
    if not channel:
        raise ScheduleError("empty channel name")
    if not title:
        raise ScheduleError("empty title")
    if viewers < 0:
        raise ScheduleError(f"viewers must be >= 0, got {viewers}")
    start_min = parse_time(start)
    end_min = parse_time(end)
    if title in seen:
        raise ScheduleError(f"duplicate slot_id {title!r}")
    seen.add(title)
    return ProgrammeSlot(channel, title, start_min, end_min, viewers)


def parse_schedule(source: bytes | str, fmt: str = "csv") -> tuple[ProgrammeSlot, ...]:
    """Parse CSV or JSON schedule data into a tuple of slots, preserving order."""
    if isinstance(source, bytes):
        try:
            text = source.decode("utf-8-sig")  # spreadsheet exports lead with a BOM
        except UnicodeDecodeError as exc:
            raise ScheduleError(f"input is not UTF-8: {exc}") from None
    else:
        text = source.removeprefix("\ufeff")  # the one BOM utf-8-sig drops from bytes
    if fmt == "csv":
        slots = _csv_columns(text)
        return _walk_csv(text) if slots is None else slots
    if fmt == "json":
        return _parse_json(text)
    raise ScheduleError(f"unknown format {fmt!r}, expected csv or json")


def _csv_columns(text: str) -> tuple[ProgrammeSlot, ...] | None:
    """The slots, checked and converted a whole column at a time, or None
    unless the text is unquoted, every row that is not blank has 5 fields
    and every field is good."""
    # Unquoted, each line is a row split at commas. (Before Python 3.11 the
    # reader refuses NUL.) A CRLF splits as two line ends; blank lines are skipped.
    if '"' in text or "\0" in text:
        return None
    lines = text.replace("\r", "\n").split("\n")
    if max(map(len, lines)) > csv.field_size_limit():  # the reader would raise
        return None
    lines = list(filter(str.strip, lines))
    if set(map(str.count, lines, repeat(","))) != {4}:  # also no rows at all
        return None
    fields = ",".join(lines).split(",")
    if [c.strip().lower() for c in fields[:5]] != CSV_HEADER:
        return None
    channels, titles, starts, ends, viewers = (fields[i::5] for i in range(5, 10))
    if not channels:
        return ()
    viewers = tuple(map(str.strip, viewers))
    if not ("".join(viewers).isascii() and all(map(str.isdigit, viewers))):
        return None
    try:
        viewers = tuple(map(int, viewers))
    except ValueError:  # longer than int()'s digit limit
        return None
    channels = tuple(map(str.strip, channels))
    titles = tuple(map(str.strip, titles))
    times = _times()
    start_min = tuple(map(times.get, map(str.strip, starts)))
    end_min = tuple(map(times.get, map(str.strip, ends)))
    if (all(channels) and all(titles) and None not in start_min
            and None not in end_min and len(set(titles)) == len(titles)):
        return tuple(map(tuple.__new__, repeat(ProgrammeSlot),
                         zip(channels, titles, start_min, end_min, viewers)))
    return None


def _walk_csv(text: str) -> tuple[ProgrammeSlot, ...]:
    """CSV row by row: reads what _csv_columns leaves (quotes, NUL, blank
    text, other field counts) and names a fault with its file line."""
    reader = csv.reader(io.StringIO(text, newline=""))  # LF, CRLF or bare CR
    numbered: list[tuple[int, list[str]]] = []  # (file line the row starts on, row)
    start = 1  # a quoted field may span lines, so rows and lines differ
    try:
        for row in reader:
            if len(row) > 1 or (row and row[0].strip()):  # blank lines are skipped
                numbered.append((start, row))
            start = reader.line_num + 1
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ScheduleError(f"line {reader.line_num}: bad CSV: {exc}") from None
    if not numbered:
        return ()
    (header_line, header_row), *body = numbered
    if [c.strip().lower() for c in header_row] != CSV_HEADER:
        raise ScheduleError(f"line {header_line}: bad header {header_row!r}, "
                            f"expected {','.join(CSV_HEADER)}")
    slots: list[ProgrammeSlot] = []
    seen: set[str] = set()
    for i, row in body:
        if len(row) != 5:
            raise ScheduleError(f"line {i}: expected 5 fields, got {len(row)}")
        channel, title, start, end, viewers = row
        try:
            slots.append(_make_slot(channel, title, start, end, _parse_viewers(viewers), seen))
        except ValueError as exc:
            raise ScheduleError(f"line {i}: {exc}") from None
    return tuple(slots)


def _parse_json(text: str) -> tuple[ProgrammeSlot, ...]:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep, or an int over the digit limit
        raise ScheduleError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict) or not isinstance(data.get("slots"), list):
        raise ScheduleError('expected a top-level object with a "slots" list')
    slots: list[ProgrammeSlot] = []
    seen: set[str] = set()
    for i, rec in enumerate(data["slots"]):
        if not isinstance(rec, dict):
            raise ScheduleError(f"slot {i} is not an object")
        missing = [k for k in CSV_HEADER if k not in rec]
        if missing:
            raise ScheduleError(f"slot {i} missing fields: {', '.join(missing)}")
        viewers = rec["viewers"]
        if isinstance(viewers, bool) or not isinstance(viewers, int):
            raise ScheduleError(f"slot {i}: viewers must be an integer")
        for key in ("channel", "title", "start", "end"):
            if not isinstance(rec[key], str):
                raise ScheduleError(f"slot {i}: {key} must be a string")
        try:
            slots.append(_make_slot(rec["channel"], rec["title"], rec["start"],
                                    rec["end"], viewers, seen))
        except ValueError as exc:
            raise ScheduleError(f"slot {i}: {exc}") from None
    return tuple(slots)


def serialize_schedule(s: tuple[ProgrammeSlot, ...], fmt: str = "csv") -> str:
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for slot in s:
            writer.writerow([slot.channel, slot.title, format_time(slot.start),
                             format_time(slot.end), slot.viewers])
        return out.getvalue()
    if fmt == "json":
        records = [
            {"channel": sl.channel, "title": sl.title, "start": format_time(sl.start),
             "end": format_time(sl.end), "viewers": sl.viewers}
            for sl in s
        ]
        return json.dumps({"slots": records}, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def validate_schedule(s: tuple[ProgrammeSlot, ...]) -> list[ValidationIssue]:
    """Check the model assumptions. Never raises; returns a report.

    ERROR: a slot with start >= end (zero-length or wrapping past midnight).
    WARNING: two slots of the same channel whose open intervals overlap.
    """
    ordered = sorted(s, key=itemgetter(2))
    ordered.sort(key=itemgetter(0))  # by (channel, start), stable
    channels = list(map(itemgetter(0), ordered))
    starts = list(map(itemgetter(2), ordered))
    ends = list(map(itemgetter(3), ordered))
    # ordered by start, a channel's slots of positive length are pairwise
    # disjoint iff each is disjoint from the next, for then their ends increase
    if not (any(map(ge, starts, ends)) or any(map(and_, map(eq, channels, channels[1:]),
                                                  map(gt, ends, starts[1:])))):
        return []
    issues: list[ValidationIssue] = []  # ERRORs in input order, then WARNINGs
    by_channel: dict[str, list[ProgrammeSlot]] = {}
    for slot in s:
        if slot.start >= slot.end:
            issues.append(ValidationIssue(
                "ERROR", (slot.title,),
                f"slot {slot.title!r} has start {format_time(slot.start)} "
                f">= end {format_time(slot.end)}"))
        else:
            by_channel.setdefault(slot.channel, []).append(slot)
    for channel in sorted(by_channel):
        group = sorted(by_channel[channel], key=_BY_START_END_ID)
        active: list[ProgrammeSlot] = []
        for slot in group:
            active = [a for a in active if a.end > slot.start]
            for other in active:
                issues.append(ValidationIssue(
                    "WARNING", (other.title, slot.title),
                    f"channel {channel!r}: slots {other.title!r} and {slot.title!r} overlap"))
            active.append(slot)
    return issues


def to_intervals(s: tuple[ProgrammeSlot, ...],
                 excluded: set[str] | frozenset[str] = frozenset()) -> IntervalInstance:
    """Build the weighted interval instance for the non-excluded slots.

    Excluded slots are dropped entirely, which leaves the optimum unchanged
    compared to keeping them at weight zero. Vertex ids are assigned in
    (start, end, slot_id) order.
    """
    if excluded:
        unknown = set(excluded) - {slot.title for slot in s}
        if unknown:
            raise ValueError(f"excluded slot ids not in schedule: {', '.join(sorted(unknown))}")
        kept = [slot for slot in s if slot.title not in excluded]
    else:
        kept = list(s)
    for slot in kept:
        if slot.start >= slot.end:
            raise ValueError(f"slot {slot.title!r} has start >= end; validate first")
    for key in (1, 3, 2):  # stable sorts, last key first: by (start, end, slot_id)
        kept.sort(key=itemgetter(key))  # with no key tuple per slot
    vertices = tuple(map(tuple.__new__, repeat(Vertex), zip(
        range(len(kept)), map(itemgetter(2), kept), map(itemgetter(3), kept),
        map(itemgetter(4), kept))))
    return IntervalInstance(vertices, dict(enumerate(map(itemgetter(1), kept))))
