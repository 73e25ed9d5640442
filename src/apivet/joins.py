"""Join engine: attach related rows to each focal call.

For every accepted relationship, a focal call gets one named binding whose
rows come from the table state strictly before the call, from earlier calls
in the same session window, or from the session environment record.

Table joins are answered by a forward sweep over the version stream, so a
whole corpus joins in one pass when calls arrive in time order (the sweep
rewinds and replays if they do not). join_api_db is the plain per-call
reference; iter_joined_groups is the streaming fast path detection uses.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from .binlog import TemporalTable
from .errors import StoreLookupError
from .logstore import InstanceTable, LogCorpus, env_by_session, project_instances
from .relations import API_API, API_DB, API_ENV, Relationship
from .schema import ENV, EntityType, SchemaBundle
from .values import coerce_scalar, value_key, values_equal

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
        self._env_rows: dict[str, dict[str, dict]] = {}
        env_map = env_by_session(corpus.env_records)
        for entity in bundle.of_kind(ENV):
            rows = {}
            for sid, record in env_map.items():
                rows[sid] = _project_env_record(entity, record.fields)
            self._env_rows[entity.name] = rows

    def instances(self, api_name: str) -> InstanceTable:
        if api_name not in self._instances:
            self._instances[api_name] = project_instances(
                self._corpus.events, self.bundle.entity(api_name)
            )
        return self._instances[api_name]

    def table(self, name: str) -> TemporalTable:
        store = self.tables.get(name)
        if store is None:
            raise StoreLookupError(f"unknown table {name!r}")
        return store

    def column_events(self, table_name: str, column: str) -> list:
        """Version stream of one column: (ts, ordinal, value key, chain key, row).

        Sorted by (ts, ordinal) and shared by every cursor that sweeps this
        column; deletes and null column values carry a None value key.
        """
        cache_key = (table_name, column)
        if cache_key not in self._column_events:
            store = self.table(table_name)
            events = []
            for chain_key, chain in store.chains.items():
                for ts, ordinal, row in chain:
                    vk = None if row is None else value_key(row.get(column))
                    events.append((ts, ordinal, vk, chain_key, row))
            # (ts, ordinal) ties when an update moves a row to a new key, so
            # whole events are not comparable: sort stably, minor field first
            events.sort(key=itemgetter(1))
            events.sort(key=itemgetter(0))
            self._column_events[cache_key] = events
        return self._column_events[cache_key]

    def session_calls(self, api_name: str) -> tuple[list, list, dict]:
        """Calls sorted by (session, time, id) as parallel times and rows
        arrays, with each session's [lo, hi) span in them.

        Flat arrays keep the index at three containers however many
        sessions there are.
        """
        if api_name not in self._session_index:
            calls = sorted(
                # log ids are unique, so rows are never compared
                (row["sessionId"], row["time"], log_id, row)
                for log_id, row in self.instances(api_name).rows
            )
            spans: dict[str, tuple[int, int]] = {}
            lo = 0
            for hi in range(1, len(calls) + 1):
                if hi == len(calls) or calls[hi][0] != calls[lo][0]:
                    spans[calls[lo][0]] = (lo, hi)
                    lo = hi
            self._session_index[api_name] = (
                [call[1] for call in calls],
                [call[3] for call in calls],
                spans,
            )
        return self._session_index[api_name]

    def env_rows(self, entity_name: str) -> dict[str, dict]:
        if entity_name not in self._env_rows:
            raise StoreLookupError(f"unknown environment entity {entity_name!r}")
        return self._env_rows[entity_name]


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
    version stream in total; a backward t replays from the start, trading
    speed for correctness on unsorted input.
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


def join_api_db(
    stores: JoinStores, rel: Relationship, focal_row: dict
) -> list[dict]:
    """Target rows live strictly before the call whose column equals the arg.

    Reference implementation: scans every row chain. iter_joined_groups
    answers the same question through a DbJoinCursor sweep.
    """
    value = focal_row.get(rel.focal_attr)
    if value is None:
        return []
    t = focal_row["time"]
    store = stores.table(rel.target_entity)
    rows = []
    for chain_key in store.chains:
        row = store.version_before(chain_key, t)
        if row is not None and values_equal(row.get(rel.target_attr), value):
            rows.append(row)
    return rows


def join_api_api(
    stores: JoinStores, rel: Relationship, focal_row: dict
) -> list[dict]:
    """Earlier same-session calls of the target API inside the time window."""
    delta = rel.delta_ms if rel.delta_ms is not None else DEFAULT_DELTA_MS
    return _calls_in_window(
        stores.session_calls(rel.target_entity),
        focal_row["sessionId"],
        focal_row["time"],
        delta,
    )


def _calls_in_window(calls: tuple, session_id: str, t: int, delta: int) -> list:
    """A session's calls with t - delta < time < t, from session_calls."""
    times, rows, spans = calls
    lo, hi = spans.get(session_id, (0, 0))
    return rows[bisect_right(times, t - delta, lo, hi) : bisect_left(times, t, lo, hi)]


def join_api_env(
    stores: JoinStores, rel: Relationship, focal_row: dict
) -> list[dict]:
    """The session's environment record, when one exists."""
    row = stores.env_rows(rel.target_entity).get(focal_row["sessionId"])
    return [row] if row is not None else []


def _binding_joiners(
    stores: JoinStores, schema: JoinedSchema, only: set[str] | None = None
):
    """Fresh per-binding join callables; DB cursors start at time zero.

    `only` restricts joining to the named bindings (the rest stay unbound);
    callers that know which bindings their expressions quantify over skip
    the dead joins entirely.
    """
    joiners = []
    for binding in schema.bindings:
        if only is not None and binding.name not in only:
            continue
        rel = binding.relationship
        if rel.kind == API_DB:
            cursor = DbJoinCursor(
                stores.column_events(rel.target_entity, rel.target_attr)
            )
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
            env_rows = stores.env_rows(rel.target_entity)

            def env_join(row, env_rows=env_rows):
                env_row = env_rows.get(row["sessionId"])
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
