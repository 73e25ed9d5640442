"""Log ingestion, instance projection, session sequences, and labels.

A log corpus is JSON Lines with two record kinds: API call events and
per-session environment snapshots, which may carry the time they were taken.
Events get sequential ids in file order; those ids are the ordering
tiebreaker everywhere downstream.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from operator import attrgetter
from typing import Iterable

from .fileio import keep_records, read_json_lines
from .schema import EntityType
from .values import SCALAR_CLASSES, Record, coerce_scalar, get_path

logger = logging.getLogger(__name__)


class LogEvent(Record):
    __slots__ = ("id", "api", "arguments", "response", "time", "sessionId")

    def __init__(
        self, id: int, api: str, arguments: dict, response: dict, time: int, sessionId: str
    ):
        self.id = id
        self.api = api
        self.arguments = arguments
        self.response = response
        self.time = time
        self.sessionId = sessionId


class EnvRecord(Record):
    __slots__ = ("sessionId", "fields", "time")

    # time None: in force from before any call
    def __init__(self, sessionId: str, fields: dict, time: int | None = None):
        self.sessionId = sessionId
        self.fields = fields
        self.time = time


class LogCorpus(Record):
    __slots__ = ("events", "env_records", "skipped")

    def __init__(self, events: list[LogEvent], env_records: list[EnvRecord], skipped: int = 0):
        self.events = events
        self.env_records = env_records
        self.skipped = skipped


class LabelRecord(Record):
    __slots__ = ("log_id", "label", "trace")

    def __init__(self, log_id: int, label: str, trace: str | None = None):
        self.log_id = log_id
        self.label = label
        self.trace = trace


class InstanceTable(Record):
    """Projected rows of one API entity: (log id, attribute path -> scalar)."""

    __slots__ = ("entity", "rows", "mismatches")

    def __init__(
        self, entity: EntityType, rows: list[tuple[int, dict]] | None = None, mismatches: int = 0
    ):
        self.entity = entity
        self.rows = [] if rows is None else rows
        self.mismatches = mismatches


# The rules below test exact classes: json.loads yields builtin classes
# only, so `x.__class__ is int` holds exactly where isinstance(x, int) and
# not isinstance(x, bool) would.


def _check_api_line(record: dict) -> str | None:
    api = record.get("api")
    if api.__class__ is not str or not api:
        return "api name must be a non-empty string"
    if record.get("arguments").__class__ is not dict:
        return "arguments must be a document"
    if record.get("response").__class__ is not dict:
        return "response must be a document"
    t = record.get("time")
    if t.__class__ is not int or t < 0:
        return "time must be a non-negative integer"
    sid = record.get("sessionId")
    if sid.__class__ is not str or not sid:
        return "sessionId must be a non-empty string"
    return None


def _check_env_line(record: dict) -> str | None:
    sid = record.get("sessionId")
    if sid.__class__ is not str or not sid or record.get("fields").__class__ is not dict:
        return "env record requires sessionId and fields"
    if "time" in record:
        t = record["time"]
        if t.__class__ is not int or t < 0:
            return "env time must be a non-negative integer"
    return None


def ingest_logs(lines: Iterable[str], mode: str = "lenient") -> LogCorpus:
    """Parse a log stream; strict mode raises on the first malformed line.

    Blank lines are ignored.
    """
    events: list[LogEvent] = []
    env_records: list[EnvRecord] = []

    def keep(record) -> str | None:
        kind = record.get("kind") if record.__class__ is dict else None
        if kind == "api":
            problem = _check_api_line(record)
            if problem is None:
                events.append(
                    LogEvent(
                        len(events),
                        record["api"],
                        record["arguments"],
                        record["response"],
                        record["time"],
                        record["sessionId"],
                    )
                )
            return problem
        if kind == "env":
            problem = _check_env_line(record)
            if problem is None:
                env_records.append(
                    EnvRecord(record["sessionId"], record["fields"], record.get("time"))
                )
            return problem
        if record is None:
            return "malformed record"
        return f"unknown record kind {kind!r}"

    skipped = keep_records(lines, keep, mode, "log", logger)
    return LogCorpus(events=events, env_records=env_records, skipped=skipped)


def read_log_file(path: str, mode: str = "lenient") -> LogCorpus:
    return read_json_lines(path, lambda lines: ingest_logs(lines, mode=mode))


def env_history(records: Iterable[EnvRecord]) -> tuple[dict, dict]:
    """Environment records per session, in the shape env_before reads.

    The first map holds each session's last untimed record in file order.
    The second holds, for sessions with timed records only, parallel
    (times, records) arrays sorted by (time, file order).
    """
    untimed: dict[str, EnvRecord] = {}
    timed: dict[str, list[EnvRecord]] = {}
    for record in records:
        if record.time is None:
            untimed[record.sessionId] = record
        else:
            timed.setdefault(record.sessionId, []).append(record)
    history = {}
    for sid, session_records in timed.items():
        session_records.sort(key=attrgetter("time"))  # stable: ties keep file order
        history[sid] = ([r.time for r in session_records], session_records)
    return untimed, history


def env_before(history: tuple[dict, dict], session_id: str, t: int):
    """The session's last record by (time, file order) with time < t.

    `history` is env_history's shape, with records or projected rows. An
    untimed record counts as time minus infinity, so it answers when no
    timed record of the session is earlier than t. None if nothing does.
    """
    untimed, timed = history
    session = timed.get(session_id)
    if session is not None:
        times, rows = session
        i = bisect_left(times, t)
        if i:
            return rows[i - 1]
    return untimed.get(session_id)


_SIDES = {"arguments": 0, "response": 1}  # a call's documents, by path root


def project_instances(
    events: Iterable[LogEvent], entities: Iterable[EntityType]
) -> dict[str, InstanceTable]:
    """Project each event onto the attributes of the API entity it calls.

    One pass over the events fills one table per entity, rows in event
    order; events of other APIs are skipped. Missing leaves become null;
    coercion mismatches become null and bump the table's mismatch counter.
    """
    plans = {}
    for entity in entities:
        specs = []
        for attr in entity.attributes:
            if attr.path in ("time", "sessionId"):
                continue
            root, *rest = attr.segments
            side = _SIDES.get(root)
            if side is None:  # no document of the call: read a leaf of nothing
                side, rest = 2, [root]
            key = rest[0] if len(rest) == 1 else None  # read with one .get
            tag = attr.type.tag
            specs.append(
                (attr.path, side, tuple(rest), key, tag, SCALAR_CLASSES.get(tag))
            )
        plans[entity.name] = (InstanceTable(entity=entity), specs)
    nowhere: dict = {}
    for event in events:
        plan = plans.get(event.api)
        if plan is None:
            continue
        table, specs = plan
        docs = (event.arguments, event.response, nowhere)
        row: dict = {}
        for path, side, segments, key, tag, cls in specs:
            doc = docs[side]
            if key is not None and doc.__class__ is dict:
                value = doc.get(key)
            else:
                value = get_path(doc, segments)[1]
            # a value of the tag's own class coerces to itself
            if value.__class__ is not cls:
                value, mismatch = coerce_scalar(value, tag)
                if mismatch:
                    table.mismatches += 1
            row[path] = value
        row["time"] = event.time
        row["sessionId"] = event.sessionId
        table.rows.append((event.id, row))
    return {name: table for name, (table, _) in plans.items()}


def session_sequences(events: Iterable[LogEvent]) -> dict[str, list[str]]:
    """API name sequences per session, ordered by (time, id)."""
    buckets: dict[str, list[tuple[int, int, str]]] = {}
    for event in events:
        buckets.setdefault(event.sessionId, []).append(
            (event.time, event.id, event.api)
        )
    out: dict[str, list[str]] = {}
    for sid, items in buckets.items():
        items.sort()
        out[sid] = [api for _, _, api in items]
    return out


def parse_labels(lines: Iterable[str], mode: str = "lenient") -> list[LabelRecord]:
    """Parse the label sidecar (one record per log id). Lenient mode drops a
    malformed line, or one whose log id an earlier line labelled, and logs
    one warning with the count; strict mode raises on the first."""
    out: list[LabelRecord] = []
    labelled: set[int] = set()

    def keep(record) -> str | None:
        if not isinstance(record, dict):
            record = {}  # valid JSON, but not a label record
        log_id = record.get("log_id")
        label = record.get("label")
        trace = record.get("trace")
        if not (
            isinstance(log_id, int)
            and not isinstance(log_id, bool)
            and label in ("normal", "attack")
            and (trace is None or isinstance(trace, str))
        ):
            return "malformed label record"
        if log_id in labelled:
            return f"log_id {log_id} is labelled twice"
        labelled.add(log_id)
        out.append(LabelRecord(log_id=log_id, label=label, trace=trace))
        return None

    keep_records(lines, keep, mode, "label", logger)
    return out


def read_label_file(path: str, mode: str = "lenient") -> list[LabelRecord]:
    return read_json_lines(path, lambda lines: parse_labels(lines, mode=mode))
