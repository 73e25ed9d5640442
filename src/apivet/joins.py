"""Join engine: attach related rows to each focal call.

For every accepted relationship, a focal call gets one named binding whose
rows come from the table state strictly before the call, from earlier calls
in the same session window, or from the session environment record in force
before the call.

Each focal API's calls are held in (time, log id) order, whatever the order
of the log lines, so table joins are answered by one forward sweep of each
column's version stream per corpus. iter_joined_groups is the one join
path; independent reference joins live with the tests.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from .binlog import TemporalTable
from .errors import StoreLookupError
from .logstore import (
    InstanceTable,
    LogCorpus,
    env_before,
    env_history,
    project_instances,
)
from .relations import API_API, API_DB, Relationship
from .schema import ENV, EntityType, SchemaBundle
from .values import coerce_scalar, value_key

DEFAULT_DELTA_MS = 60000


@dataclass(frozen=True)
class Binding:
    name: str
    relationship: Relationship
    entity: EntityType


@dataclass
class JoinedSchema:
    focal: EntityType
    bindings: list[Binding]


@dataclass(slots=True)
class JoinedGroup:
    log_id: int
    focal: dict
    bindings: dict


def binding_names(relationships: list[Relationship]) -> list[str]:
    """One stable name per relationship of a single focal entity.

    A lone link to a target borrows the target's name; once a target is
    joined more than once, every link to it is suffixed with its focal
    attribute so the names stay distinct.
    """
    counts: dict[str, int] = {}
    for rel in relationships:
        counts[rel.target_entity] = counts.get(rel.target_entity, 0) + 1
    names = []
    for rel in relationships:
        if counts[rel.target_entity] == 1:
            names.append(rel.target_entity)
        else:
            attr = (rel.focal_attr or "x").replace(".", "_")
            names.append(f"{rel.target_entity}__{attr}")
    # focal_attr may still tie (same attribute joined to two target columns)
    tallies: dict[str, int] = {}
    for name in names:
        tallies[name] = tallies.get(name, 0) + 1
    if any(n > 1 for n in tallies.values()):
        seen: dict[str, int] = {}
        for i, name in enumerate(names):
            if tallies[name] > 1:
                attr = (relationships[i].target_attr or "t").replace(".", "_")
                names[i] = f"{name}__{attr}"
                seen[names[i]] = seen.get(names[i], 0) + 1
                if seen[names[i]] > 1:
                    names[i] = f"{names[i]}_{seen[names[i]]}"
    return names


def joined_schema_for(
    bundle: SchemaBundle, focal_name: str, relationships: list[Relationship]
) -> JoinedSchema:
    focal = bundle.entity(focal_name)
    rels = [r for r in relationships if r.focal_entity == focal_name]
    names = binding_names(rels)
    bindings = [
        Binding(name=name, relationship=rel, entity=bundle.entity(rel.target_entity))
        for name, rel in zip(names, rels)
    ]
    return JoinedSchema(focal=focal, bindings=bindings)


def _project_env_record(entity: EntityType, fields: dict) -> dict:
    row: dict = {}
    for attr in entity.attributes:
        raw = fields.get(attr.path)
        if raw is None:
            row[attr.path] = None
        else:
            value, _ = coerce_scalar(raw, attr.type.tag)
            row[attr.path] = value
    return row


class JoinStores:
    """Indexes shared by every join of one corpus against one store state."""

    def __init__(
        self,
        bundle: SchemaBundle,
        corpus: LogCorpus,
        tables: dict[str, TemporalTable],
    ):
        self.bundle = bundle
        self.tables = tables
        self._instances: dict[str, InstanceTable] = {}
        self._corpus = corpus
        self._session_index: dict[str, tuple[list, list, dict]] = {}
        self._column_events: dict[tuple[str, str], list] = {}
        self._column_keys: dict[tuple[str, str], set] = {}
        untimed, timed = env_history(corpus.env_records)
        self._env: dict[str, tuple[dict, dict]] = {}
        for entity in bundle.of_kind(ENV):
            self._env[entity.name] = (
                {sid: _project_env_record(entity, r.fields) for sid, r in untimed.items()},
                {
                    sid: (times, [_project_env_record(entity, r.fields) for r in records])
                    for sid, (times, records) in timed.items()
                },
            )

    def instances(self, api_name: str) -> InstanceTable:
        """Projected calls of one API, sorted by (time, log id).

        Every sweep over them moves its join cursors forward only, so a
        corpus joins in one pass whatever the order of its log lines.
        """
        if api_name not in self._instances:
            table = project_instances(self._corpus.events, self.bundle.entity(api_name))
            # projection keeps ingest (log id) order, so a stable sort on
            # time alone gives (time, log id)
            table.rows.sort(key=lambda item: item[1]["time"])
            self._instances[api_name] = table
        return self._instances[api_name]

    def _versions(self, table_name: str, column: str):
        """column_events' tuples, unsorted."""
        store = self.tables.get(table_name)
        if store is None:
            raise StoreLookupError(f"unknown table {table_name!r}")
        for chain_key, chain in store.chains.items():
            for ts, ordinal, row in chain:
                vk = None if row is None else value_key(row.get(column))
                yield ts, ordinal, vk, chain_key, row

    def column_events(self, table_name: str, column: str) -> list:
        """Version stream of one column: (ts, ordinal, value key, chain key, row).

        Sorted by (ts, ordinal) and shared by every cursor that sweeps this
        column; deletes and null column values carry a None value key.
        """
        cache_key = (table_name, column)
        if cache_key not in self._column_events:
            events = list(self._versions(table_name, column))
            # (ts, ordinal) ties when an update moves a row to a new key, so
            # whole events are not comparable: sort stably, minor field first
            events.sort(key=itemgetter(1))
            events.sort(key=itemgetter(0))
            self._column_events[cache_key] = events
        return self._column_events[cache_key]

    def column_keys(self, table_name: str, column: str) -> set:
        """Non-null value keys of column_events, without building the stream:
        every value the column held in any version, for relationship inference."""
        cache_key = (table_name, column)
        if cache_key not in self._column_keys:
            versions = self._versions(table_name, column)
            self._column_keys[cache_key] = {v[2] for v in versions if v[2] is not None}
        return self._column_keys[cache_key]

    def session_calls(self, api_name: str) -> tuple[list, list, dict]:
        """Calls sorted by (session, time, id) as parallel times and rows
        arrays, with each session's [lo, hi) span in them.

        Flat arrays keep the index at three containers however many
        sessions there are.
        """
        if api_name not in self._session_index:
            # instances are in (time, id) order, so a stable sort on the
            # session alone gives (session, time, id)
            rows = sorted(
                (row for _, row in self.instances(api_name).rows),
                key=itemgetter("sessionId"),
            )
            spans: dict[str, tuple[int, int]] = {}
            lo = 0
            for hi in range(1, len(rows) + 1):
                if hi == len(rows) or rows[hi]["sessionId"] != rows[lo]["sessionId"]:
                    spans[rows[lo]["sessionId"]] = (lo, hi)
                    lo = hi
            self._session_index[api_name] = ([row["time"] for row in rows], rows, spans)
        return self._session_index[api_name]

    def env_index(self, entity_name: str) -> tuple[dict, dict]:
        """Projected environment records of one entity, per session, in
        logstore.env_history's shape: each session's last untimed row, and
        (times, rows) arrays for sessions with timed records.
        """
        if entity_name not in self._env:
            raise StoreLookupError(f"unknown environment entity {entity_name!r}")
        return self._env[entity_name]


class BucketRows:
    """Read-only view of one cursor bucket, valid until the cursor advances.

    Streaming detection finishes with a group before asking for the next,
    so the hot path never copies rows. Indexing and slicing (the explanation
    sampler does both) materialize a tuple on demand.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: dict):
        self._rows = rows

    def __iter__(self):
        return iter(self._rows.values())

    def __len__(self):
        return len(self._rows)

    def __bool__(self):
        return bool(self._rows)

    def __getitem__(self, index):
        return tuple(self._rows.values())[index]


_EMPTY_ROWS: tuple = ()


class DbJoinCursor:
    """One column's live rows grouped by value, advanced along the timeline.

    rows_as_of(value, t) answers with the rows live strictly before t whose
    column equals value. Calls with non-decreasing t cost one sweep over the
    version stream in total, which is what every sweep over
    JoinStores.instances makes. A backward t, which only a caller with its
    own row order can make, replays from the start.
    """

    __slots__ = ("_events", "_pos", "_t", "_live", "_buckets")

    def __init__(self, events: list):
        self._events = events
        self._pos = 0
        self._t: int | None = None
        self._live: dict = {}  # chain key -> value key of its live row
        self._buckets: dict = {}  # value key -> {chain key: row}

    def rows_as_of(self, value, t: int):
        if self._t is not None and t < self._t:
            self._pos = 0
            self._live = {}
            self._buckets = {}
        self._t = t
        events = self._events
        pos = self._pos
        n = len(events)
        buckets = self._buckets
        if pos < n and events[pos][0] < t:
            live = self._live
            while pos < n:
                event = events[pos]
                if event[0] >= t:
                    break
                pos += 1
                _, _, vk, chain_key, row = event
                old = live.pop(chain_key, None)
                if old is not None:
                    del buckets[old][chain_key]
                if vk is None:
                    continue
                live[chain_key] = vk
                bucket = buckets.get(vk)
                if bucket is None:
                    bucket = buckets[vk] = {}
                bucket[chain_key] = row
            self._pos = pos
        bucket = buckets.get(value_key(value))
        return BucketRows(bucket) if bucket else _EMPTY_ROWS


def _calls_in_window(calls: tuple, session_id: str, t: int, delta: int) -> list:
    """A session's calls with t - delta < time < t, from session_calls."""
    times, rows, spans = calls
    lo, hi = spans.get(session_id, (0, 0))
    return rows[bisect_right(times, t - delta, lo, hi) : bisect_left(times, t, lo, hi)]


def _binding_joiners(
    stores: JoinStores, schema: JoinedSchema, only: set[str] | None = None
):
    """Fresh per-binding join callables; DB cursors start at time zero.

    `only` restricts joining to the named bindings (the rest stay unbound);
    callers that know which bindings their expressions quantify over skip
    the dead joins entirely. Bindings on one (table, column) share a cursor:
    all bindings of a group probe at the call's time, so it never advances
    between them and their bucket views stay valid together.
    """
    joiners = []
    cursors: dict[tuple[str, str], DbJoinCursor] = {}
    for binding in schema.bindings:
        if only is not None and binding.name not in only:
            continue
        rel = binding.relationship
        if rel.kind == API_DB:
            column = (rel.target_entity, rel.target_attr)
            cursor = cursors.get(column)
            if cursor is None:
                cursor = cursors[column] = DbJoinCursor(stores.column_events(*column))
            attr = rel.focal_attr

            def db_join(row, cursor=cursor, attr=attr):
                value = row.get(attr)
                if value is None:
                    return _EMPTY_ROWS
                return cursor.rows_as_of(value, row["time"])

            joiners.append((binding.name, db_join))
        elif rel.kind == API_API:
            delta = rel.delta_ms if rel.delta_ms is not None else DEFAULT_DELTA_MS
            calls = stores.session_calls(rel.target_entity)

            def api_join(row, calls=calls, delta=delta):
                return _calls_in_window(calls, row["sessionId"], row["time"], delta)

            joiners.append((binding.name, api_join))
        else:
            env = stores.env_index(rel.target_entity)

            def env_join(row, env=env):
                env_row = env_before(env, row["sessionId"], row["time"])
                return [env_row] if env_row is not None else _EMPTY_ROWS

            joiners.append((binding.name, env_join))
    return joiners


def iter_joined_groups(
    stores: JoinStores,
    schema: JoinedSchema,
    rows: list[tuple[int, dict]] | None = None,
    only: set[str] | None = None,
) -> Iterator[JoinedGroup]:
    """Stream one group per focal call with every binding's rows attached.

    DB bindings are views into a sweeping cursor: each yielded group must be
    fully consumed before the next one is requested. Copy the binding lists
    (or use build_joined_groups) to keep groups around.
    """
    if rows is None:
        rows = stores.instances(schema.focal.name).rows
    joiners = _binding_joiners(stores, schema, only)
    for log_id, row in rows:
        bindings = {name: join(row) for name, join in joiners}
        yield JoinedGroup(log_id=log_id, focal=row, bindings=bindings)


def build_joined_groups(
    stores: JoinStores, schema: JoinedSchema
) -> list[JoinedGroup]:
    """One group per focal call, with binding rows copied out as lists."""
    groups = []
    for group in iter_joined_groups(stores, schema):
        group.bindings = {name: list(rows) for name, rows in group.bindings.items()}
        groups.append(group)
    return groups
