"""Temporal replay of row-change events into per-key version chains.

Every table row is kept as a chain of (timestamp, ordinal, image) versions,
where a None image is a tombstone. Replay only builds the chains; their one
reader is joins.JoinStores, which walks them per column to give inference
its value universes and to show the join sweep the versions strictly
before each call: an event at exactly t is not visible at t, so a call's
own database effect never leaks into its own evaluation.
"""

from __future__ import annotations

import logging
from typing import Iterable

from .errors import ReplayError
from .fileio import keep_records, read_json_lines
from .schema import TABLE, EntityType, SchemaBundle
from .values import Record

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


# Version = (ts, ordinal, row image or None for a tombstone)
Version = tuple[int, int, "dict | None"]


class TemporalTable(Record):
    __slots__ = ("entity", "chains")

    def __init__(self, entity: EntityType, chains: dict[tuple, list[Version]] | None = None):
        self.entity = entity
        self.chains = {} if chains is None else chains

    def append(self, key: tuple, ts: int, ordinal: int, row: dict | None) -> None:
        chain = self.chains.setdefault(key, [])
        if chain and (ts, ordinal) <= (chain[-1][0], chain[-1][1]):
            raise ReplayError(
                f"out-of-order version for key {key!r} in {self.entity.name!r}"
            )
        chain.append((ts, ordinal, row))

    def is_live(self, key: tuple) -> bool:
        chain = self.chains.get(key)
        return bool(chain) and chain[-1][2] is not None


def _key_of(entity: EntityType, image: dict, ts: int) -> tuple:
    key = []
    for col in entity.primary_key or ():
        if col not in image:
            raise ReplayError(
                f"row image for {entity.name!r} at ts {ts} lacks key column {col!r}"
            )
        key.append(image[col])
    chain_key = tuple(key)
    try:
        hash(chain_key)
    except TypeError:  # a JSON list or object cannot key a chain
        raise ReplayError(
            f"row image for {entity.name!r} at ts {ts} has a list or object in its "
            f"key {chain_key!r}"
        ) from None
    return chain_key


def ingest_binlog(
    events: Iterable[RowEvent],
    bundle: SchemaBundle,
    mode: str = "lenient",
) -> dict[str, TemporalTable]:
    """Build one TemporalTable per table from a row-event stream.

    Strict mode raises on inconsistent streams; lenient mode repairs them:
    insert-on-live overwrites, update-on-absent inserts, delete-on-absent
    and out-of-order events are skipped, all with a warning.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"unknown replay mode {mode!r}")
    tables: dict[str, TemporalTable] = {}
    for entity in bundle.of_kind(TABLE):
        tables[entity.name] = TemporalTable(entity=entity)
    repairs = 0

    def complain(message: str) -> None:
        nonlocal repairs
        if mode == "strict":
            raise ReplayError(message)
        repairs += 1
        logger.debug(message)

    for event in events:
        table = tables.get(event.table)
        if table is None:
            complain(f"row event for unknown table {event.table!r}")
            continue
        entity = table.entity
        if not entity.primary_key:
            complain(f"table {event.table!r} has no primary key")
            continue
        try:
            if event.op == "insert":
                key = _key_of(entity, event.after or {}, event.ts)
                if table.is_live(key):
                    complain(
                        f"insert on live key {key!r} in {event.table!r} at ts {event.ts}"
                    )
                table.append(key, event.ts, event.ordinal, dict(event.after or {}))
            elif event.op == "update":
                old_key = _key_of(entity, event.before or {}, event.ts)
                new_key = _key_of(entity, event.after or {}, event.ts)
                if old_key != new_key:
                    complain(
                        f"update changes key {old_key!r} -> {new_key!r} in {event.table!r}"
                    )
                    if table.is_live(old_key):
                        table.append(old_key, event.ts, event.ordinal, None)
                elif not table.is_live(old_key):
                    complain(
                        f"update on absent key {old_key!r} in {event.table!r} "
                        f"at ts {event.ts}"
                    )
                table.append(new_key, event.ts, event.ordinal, dict(event.after or {}))
            else:
                key = _key_of(entity, event.before or {}, event.ts)
                if not table.is_live(key):
                    complain(
                        f"delete on absent key {key!r} in {event.table!r} "
                        f"at ts {event.ts}"
                    )
                    continue
                table.append(key, event.ts, event.ordinal, None)
        except ReplayError:
            if mode == "strict":
                raise
            repairs += 1
    if repairs:
        logger.warning("repaired or skipped %d inconsistent row event(s)", repairs)
    return tables
