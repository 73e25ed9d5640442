"""Temporal replay of row-change events into one version stream per table.

Replay applies the events in (ts, ordinal) order, ordinal being the line's
position in the file: the lines need not be in time order, and events at
one ts apply in file order. A row is identified by the value keys of its
key columns, the equality rule of joins, so a null, list or object key is
refused and true and 1 key two rows. Each table's stream lists its
versions as (ts, ordinal, key, image) in that order, a None image being a
tombstone. Its one reader is joins.JoinStores, which groups it per key
into the index every table join looks up: the version strictly before a
call, so an event at exactly t is not visible at t, and a call's own
database effect never leaks into its own evaluation.
"""

from __future__ import annotations

import logging
from operator import attrgetter
from typing import Iterable

from .errors import ReplayError
from .fileio import keep_records, read_json_lines
from .schema import TABLE, EntityType, SchemaBundle
from .values import Record, value_key

logger = logging.getLogger(__name__)

OPS = ("insert", "update", "delete")


class RowEvent(Record):
    __slots__ = ("table", "op", "ts", "before", "after", "ordinal")

    def __init__(
        self, table: str, op: str, ts: int, before: dict | None, after: dict | None,
        ordinal: int = 0,
    ):
        self.table = table
        self.op = op
        self.ts = ts
        self.before = before
        self.after = after
        self.ordinal = ordinal


def parse_row_events(lines: Iterable[str], mode: str = "lenient") -> list[RowEvent]:
    """Parse binary-log JSON Lines into RowEvents (ordinal = file position).

    Blank lines are ignored.
    """
    events: list[RowEvent] = []

    def keep(record) -> str | None:
        if record.__class__ is not dict:
            return "row event must be a document"
        problem = _check_row_event(record)
        if problem is None:
            events.append(
                RowEvent(
                    record["table"],
                    record["op"],
                    record["ts"],
                    record.get("before"),
                    record.get("after"),
                    len(events),
                )
            )
        return problem

    keep_records(lines, keep, mode, "binlog", logger)
    return events


def _check_row_event(record: dict) -> str | None:
    # exact class tests: json.loads yields builtin classes only
    table = record.get("table")
    if table.__class__ is not str or not table:
        return "table must be a non-empty string"
    op = record.get("op")
    if op not in OPS:
        return f"unknown op {op!r}"
    ts = record.get("ts")
    if ts.__class__ is not int or ts < 0:
        return "ts must be a non-negative integer"
    before = record.get("before")
    after = record.get("after")
    if op == "insert" and not (after.__class__ is dict and before is None):
        return "insert carries only an after image"
    if op == "delete" and not (before.__class__ is dict and after is None):
        return "delete carries only a before image"
    if op == "update" and not (before.__class__ is dict and after.__class__ is dict):
        return "update carries both images"
    return None


def read_binlog_file(path: str, mode: str = "lenient") -> list[RowEvent]:
    return read_json_lines(path, lambda lines: parse_row_events(lines, mode=mode))


class TemporalTable(Record):
    """One table's version stream: (ts, ordinal, key, row image or None for
    a tombstone), in (ts, ordinal) order. The key is the row's identity:
    the tuple of its key columns' value keys (values.value_key)."""

    __slots__ = ("entity", "versions")

    def __init__(self, entity: EntityType, versions: list[tuple] | None = None):
        self.entity = entity
        self.versions = [] if versions is None else versions

    @property
    def chains(self) -> dict[tuple, list[tuple]]:
        """The stream split per key into (ts, ordinal, row) chains."""
        chains: dict[tuple, list[tuple]] = {}
        for ts, ordinal, key, row in self.versions:
            chains.setdefault(key, []).append((ts, ordinal, row))
        return chains


def _key_of(entity: EntityType, image: dict, ts: int) -> tuple:
    """The row identity of an image: the value keys of its key columns, by
    which true and 1 are two keys and 1 and 1.0 one."""
    key = []
    for col in entity.primary_key:
        value = image.get(col)
        vk = ("s", value) if value.__class__ is str else value_key(value)
        if vk is not None and vk[0] != "o":
            key.append(vk)
            continue
        if vk is not None:  # a JSON list or object cannot key a row
            problem = f"has a list or object in its key {_raw_key(entity, image)!r}"
        elif col in image:
            problem = f"has a null in key column {col!r}"
        else:
            problem = f"lacks key column {col!r}"
        raise ReplayError(f"row image for {entity.name!r} at ts {ts} {problem}")
    return tuple(key)


def _raw_key(entity: EntityType, image: dict) -> tuple:
    """The key values of an image as it holds them, for messages."""
    return tuple(image.get(col) for col in entity.primary_key)


def ingest_binlog(
    events: Iterable[RowEvent],
    bundle: SchemaBundle,
    mode: str = "lenient",
) -> dict[str, TemporalTable]:
    """Build one TemporalTable per table from a row-event stream.

    Events apply in (ts, ordinal) order, whatever the order they come in.
    Strict mode raises on a stream that is inconsistent in that order;
    lenient mode repairs it: insert-on-live overwrites, update-on-absent
    inserts and delete-on-absent is skipped, all counted in one warning.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"unknown replay mode {mode!r}")
    tables = {entity.name: TemporalTable(entity) for entity in bundle.of_kind(TABLE)}
    # per table, each key whose last version is a row, mapped to the key
    # tuple its versions share
    live: dict[str, dict] = {name: {} for name in tables}
    repairs = 0

    def complain(message: str) -> None:
        nonlocal repairs
        if mode == "strict":
            raise ReplayError(message)
        repairs += 1
        logger.debug(message)

    for event in sorted(events, key=attrgetter("ts", "ordinal")):
        table = tables.get(event.table)
        if table is None:
            complain(f"row event for unknown table {event.table!r}")
            continue
        entity = table.entity
        if not entity.primary_key:
            complain(f"table {event.table!r} has no primary key")
            continue
        versions = table.versions
        keys = live[event.table]
        ts = event.ts
        try:
            if event.op == "insert":
                key = _key_of(entity, event.after or {}, ts)
                if key in keys:
                    complain(
                        f"insert on live key {_raw_key(entity, event.after)!r} "
                        f"in {event.table!r} at ts {ts}"
                    )
                key = keys.setdefault(key, key)
                versions.append((ts, event.ordinal, key, dict(event.after or {})))
            elif event.op == "update":
                old_key = _key_of(entity, event.before or {}, ts)
                new_key = _key_of(entity, event.after or {}, ts)
                if old_key != new_key:
                    complain(
                        f"update changes key {_raw_key(entity, event.before)!r} -> "
                        f"{_raw_key(entity, event.after)!r} in {event.table!r}"
                    )
                    if old_key in keys:
                        versions.append((ts, event.ordinal, keys.pop(old_key), None))
                elif old_key not in keys:
                    complain(
                        f"update on absent key {_raw_key(entity, event.before)!r} "
                        f"in {event.table!r} at ts {ts}"
                    )
                new_key = keys.setdefault(new_key, new_key)
                versions.append((ts, event.ordinal, new_key, dict(event.after or {})))
            else:
                key = _key_of(entity, event.before or {}, ts)
                if key not in keys:
                    complain(
                        f"delete on absent key {_raw_key(entity, event.before)!r} "
                        f"in {event.table!r} at ts {ts}"
                    )
                    continue
                versions.append((ts, event.ordinal, keys.pop(key), None))
        except ReplayError:
            if mode == "strict":
                raise
            repairs += 1
    if repairs:
        logger.warning("repaired or skipped %d inconsistent row event(s)", repairs)
    return tables
