"""Join engine: attach related rows to each focal call.

For every accepted relationship, a focal call gets one named binding whose
rows come from the table state strictly before the call, from earlier calls
in the same session window, or from the session environment record in force
before the call.

Calls are taken in (time, log id) order, whatever the order of the log
lines. A Sweep gives every table one TableCursor, which indexes each column
some binding probes and only moves forward along the table's one version
stream, so a pass replays each table once. Sweep.emit translates each join
into generated code once: the checks inline it, and iter_joined_groups
(--dump-joined) builds its groups by it. failing_calls is the one check
sweep: detection and each refinement round consume the failing calls it
yields, each with the rows its check joined, so a failing call is joined
once. The DSL is imported only where code is generated, so relationship
inference, which reads the stores, does not load it. Independent reference
joins live with the tests.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import partial
from operator import itemgetter
from typing import Iterable, Iterator

from .binlog import TemporalTable
from .errors import StoreLookupError
from .logstore import (
    InstanceTable,
    LogCorpus,
    env_before,
    env_history,
    project_instances,
)
from .relations import API_API, API_DB, API_ENV, Relationship
from .schema import API, ENV, EntityType, SchemaBundle
from .values import SCALAR_CLASSES, Record, coerce_scalar, value_key

DEFAULT_DELTA_MS = 60000


class Binding(Record):
    __slots__ = ("name", "relationship", "entity")

    def __init__(self, name: str, relationship: Relationship, entity: EntityType):
        self.name = name
        self.relationship = relationship
        self.entity = entity


class JoinedSchema(Record):
    __slots__ = ("focal", "bindings")

    def __init__(self, focal: EntityType, bindings: list[Binding]):
        self.focal = focal
        self.bindings = bindings


class JoinedGroup(Record):
    __slots__ = ("log_id", "focal", "bindings")

    def __init__(self, log_id: int, focal: dict, bindings: dict):
        self.log_id = log_id
        self.focal = focal
        self.bindings = bindings


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


def _project_env_record(specs: list[tuple[str, str, type | None]], fields: dict) -> dict:
    row: dict = {}
    for path, tag, cls in specs:
        raw = fields.get(path)
        # a value of the tag's own class coerces to itself
        row[path] = raw if raw.__class__ is cls else coerce_scalar(raw, tag)[0]
    return row


class JoinStores:
    """Indexes shared by every join of one corpus against one store state.

    Each is built on first use and kept, so a store pays only for what its
    joins read.
    """

    def __init__(
        self,
        bundle: SchemaBundle,
        corpus: LogCorpus,
        tables: dict[str, TemporalTable],
    ):
        self.bundle = bundle
        self.tables = tables
        self._apis = {entity.name: entity for entity in bundle.of_kind(API)}
        self._instances: dict[str, InstanceTable] = {}
        self._corpus = corpus
        self._session_index: dict[str, tuple[list, list, dict]] = {}
        self._column_events: dict[tuple[str, str], list] = {}
        self._column_keys: dict[tuple[str, str], set] = {}
        self._env_entities = {entity.name: entity for entity in bundle.of_kind(ENV)}
        self._env_history: tuple[dict, dict] | None = None
        self._env: dict[tuple[str, frozenset | None], tuple[dict, dict]] = {}

    def project(self, api_names: Iterable[str]) -> None:
        """Project the calls of these APIs, in one pass over the corpus,
        for instances to return. APIs already projected are skipped.

        Every sweep over projected calls moves its join cursors forward
        only, so a corpus joins in one pass whatever the order of its log
        lines.
        """
        entities = {}
        for name in api_names:
            if name not in self._instances:
                entity = self._apis.get(name)
                if entity is None:
                    raise StoreLookupError(f"unknown API {name!r}")
                entities[name] = entity
        if not entities:
            return
        for name, table in project_instances(self._corpus.events, entities.values()).items():
            # projection keeps ingest (log id) order, so a stable sort on
            # time alone gives (time, log id)
            table.rows.sort(key=lambda item: item[1]["time"])
            self._instances[name] = table

    def instances(self, api_name: str) -> InstanceTable:
        """Projected calls of one API, sorted by (time, log id).

        A request for an API not projected yet projects it together with
        every other API of the bundle not projected yet, in one pass.
        """
        if api_name not in self._instances:
            self.project([api_name, *self._apis])
        return self._instances[api_name]

    def table_events(self, table_name: str) -> list:
        """Version stream of one table, as replay built it: (ts, ordinal,
        key, row) in (ts, ordinal) order, shared by every cursor on the
        table; a delete carries a None row."""
        store = self.tables.get(table_name)
        if store is None:
            raise StoreLookupError(f"unknown table {table_name!r}")
        return store.versions

    def column_events(self, table_name: str, column: str) -> list:
        """table_events seen through one column: (ts, ordinal, value key,
        row key, row), where deletes and null values carry a None key.

        Joins index table_events directly; this per-column view is for
        callers that time or check one column's stream on its own.
        """
        cache_key = (table_name, column)
        if cache_key not in self._column_events:
            self._column_events[cache_key] = [
                (ts, ordinal, None if row is None else value_key(row.get(column)), row_key, row)
                for ts, ordinal, row_key, row in self.table_events(table_name)
            ]
        return self._column_events[cache_key]

    def column_keys(self, table_name: str, column: str) -> set:
        """Non-null value keys of one column: every value the column held
        in any version, for relationship inference."""
        cache_key = (table_name, column)
        if cache_key not in self._column_keys:
            keys = {
                value_key(row.get(column))
                for _, _, _, row in self.table_events(table_name)
                if row is not None
            }
            keys.discard(None)
            self._column_keys[cache_key] = keys
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

    def env_index(
        self, entity_name: str, attrs: frozenset | None = None
    ) -> tuple[dict, dict]:
        """Projected environment records of one entity, per session, in
        logstore.env_history's shape: each session's last untimed row, and
        (times, rows) arrays for sessions with timed records.

        `attrs` limits the projection to those attribute paths; None
        projects them all.
        """
        entity = self._env_entities.get(entity_name)
        if entity is None:
            raise StoreLookupError(f"unknown environment entity {entity_name!r}")
        cache_key = (entity_name, attrs)
        if cache_key not in self._env:
            if self._env_history is None:
                self._env_history = env_history(self._corpus.env_records)
            untimed, timed = self._env_history
            specs = [
                (attr.path, attr.type.tag, SCALAR_CLASSES.get(attr.type.tag))
                for attr in entity.attributes
                if attrs is None or attr.path in attrs
            ]
            self._env[cache_key] = (
                {sid: _project_env_record(specs, r.fields) for sid, r in untimed.items()},
                {
                    sid: (times, [_project_env_record(specs, r.fields) for r in records])
                    for sid, (times, records) in timed.items()
                },
            )
        return self._env[cache_key]


class TableCursor:
    """One table's live rows, grouped by value on each probed column, moved
    along the timeline.

    After advance(t), buckets[column] maps a value key to the {row key:
    row} of the rows live strictly before t that hold it there. The maps
    change in place, so a reference to one stays current. The cursor only
    moves forward: t must not decrease from one call to the next, which
    every sweep in (time, log id) order keeps, so a pass costs one walk of
    the table's version stream.
    """

    __slots__ = ("_events", "_pos", "_probes", "buckets", "pending")

    def __init__(self, events: list, columns):
        self._events = events
        self._pos = 0
        # per column: (column, value key -> {row key: row}, row key ->
        # the value key its live row holds there)
        self._probes = tuple((column, {}, {}) for column in columns)
        self.buckets = {column: index for column, index, _ in self._probes}
        # time of the first version not yet applied (infinity when none is)
        self.pending = events[0][0] if events else math.inf

    def advance(self, t: int) -> None:
        """Apply every version strictly before t."""
        events = self._events
        pos = self._pos
        n = len(events)
        probes = self._probes
        while pos < n:
            ts, _, row_key, row = events[pos]
            if ts >= t:
                break
            pos += 1
            for column, index, live in probes:
                old = live.pop(row_key, None)
                if old is not None:
                    del index[old][row_key]
                if row is None:
                    continue
                value = row.get(column)
                vk = ("s", value) if value.__class__ is str else value_key(value)
                if vk is not None:
                    live[row_key] = vk
                    bucket = index.get(vk)
                    if bucket is None:
                        bucket = index[vk] = {}
                    bucket[row_key] = row
        self._pos = pos
        self.pending = events[pos][0] if pos < n else math.inf


def _calls_in_window(calls: tuple, session_id: str, t: int, delta: int) -> list:
    """A session's calls with t - delta < time < t, from session_calls."""
    times, rows, spans = calls
    lo, hi = spans.get(session_id, (0, 0))
    return rows[bisect_right(times, t - delta, lo, hi) : bisect_left(times, t, lo, hi)]


def _joined(schema: JoinedSchema, only: set[str] | None) -> list:
    """The bindings of `schema` a sweep joins: those `only` names (None:
    all)."""
    return [b for b in schema.bindings if only is None or b.name in only]


class Sweep:
    """The join state of one pass over calls in (time, log id) order.

    Every table some binding probes gets one TableCursor, indexing every
    column probed on it, so a pass replays each table once however many
    APIs and columns join it. Each focal API's bindings are resolved here,
    once, to their sources, and `emit` is the one translation of a join:
    the generated checks of `failing_calls` inline its expressions and
    hand their rows back for a failing call, and `group_bindings` returns
    them as the bindings of each group of `iter_joined_groups`.

    `schemas` holds (schema, only) pairs, where `only` names the bindings to
    join (None: all). `env_attrs` maps an environment entity to the
    attribute paths to project (None: every attribute of every entity).
    """

    def __init__(
        self,
        stores: JoinStores,
        schemas: list[tuple[JoinedSchema, set[str] | None]],
        env_attrs: dict[str, frozenset] | None = None,
    ):
        columns: dict[str, list[str]] = {}
        self._sources: dict[str, list] = {}
        for schema, only in schemas:
            sources = self._sources[schema.focal.name] = []
            for binding in _joined(schema, only):
                rel = binding.relationship
                if rel.kind == API_DB:
                    probed = columns.setdefault(rel.target_entity, [])
                    if rel.target_attr not in probed:
                        probed.append(rel.target_attr)
                    source = (rel.target_entity, rel.target_attr, rel.focal_attr)
                elif rel.kind == API_API:
                    delta = rel.delta_ms if rel.delta_ms is not None else DEFAULT_DELTA_MS
                    source = (stores.session_calls(rel.target_entity), delta)
                else:
                    attrs = None if env_attrs is None else env_attrs.get(rel.target_entity)
                    source = stores.env_index(rel.target_entity, attrs)
                sources.append((binding.name, rel.kind, source))
        self.cursors = {
            table: TableCursor(stores.table_events(table), probed)
            for table, probed in columns.items()
        }
        self._cursors = tuple(self.cursors.values())

    @staticmethod
    def apis_read(schemas: list[tuple[JoinedSchema, set[str] | None]]) -> list[str]:
        """The APIs whose calls a sweep over these (schema, only) pairs
        reads: each focal API, and the earlier-call target of each API_API
        binding it joins. Projecting only these is enough for the sweep."""
        names = []
        for schema, only in schemas:
            names.append(schema.focal.name)
            names.extend(
                binding.relationship.target_entity
                for binding in _joined(schema, only)
                if binding.relationship.kind == API_API
            )
        return names

    def advance(self, t: int) -> float:
        """Move every cursor forward to t, which must not be smaller than
        the last; returns the time of the first version still pending,
        before which a later t needs no call."""
        pending = math.inf
        for cursor in self._cursors:
            if cursor.pending < t:
                cursor.advance(t)
            if cursor.pending < pending:
                pending = cursor.pending
        return pending

    def group_bindings(self, focal_name: str):
        """A generated function giving a focal row's {binding name: rows}
        as the cursors stand (see advance): the bindings of its group."""
        from .dsl import Emitter

        em = Emitter()
        rows = self.emit(em, focal_name)
        items = ", ".join(f"{name!r}: {expr}" for name, expr in rows.items())
        return em.function("row", [f"return {{{items}}}"])

    def emit(self, em, focal_name: str) -> dict[str, str]:
        """Each binding of one focal API as an expression of its rows in a
        generated function over `row` (see dsl.Emitter). DB bindings read
        the cursor buckets directly, so the function must run after
        advance(row time). A null focal value has a None key, which no
        bucket holds."""
        rows = {}
        for name, kind, source in self._sources[focal_name]:
            if kind == API_DB:
                table, column, attr = source
                buckets = em.const(self.cursors[table].buckets[column])
                bucket = em.local(f"{buckets}.get({em.key('row', attr)})")
                rows[name] = em.local(f"{bucket}.values() if {bucket} else ()")
                continue
            session, t = em.read("row", "sessionId"), em.read("row", "time")
            if kind == API_API:
                calls, delta = source
                rows[name] = em.local(
                    f"{em.const(_calls_in_window)}({em.const(calls)}, {session}, {t}, "
                    f"{em.const(delta)})"
                )
            else:
                env_row = em.local(f"{em.const(env_before)}({em.const(source)}, {session}, {t})")
                rows[name] = em.local(f"({env_row},) if {env_row} is not None else ()")
        return rows


def failing_calls(stores: JoinStores, batches: list[tuple]) -> Iterator[tuple]:
    """Check (joined schema, invariants) batches in one (time, log id) sweep
    of every batch's calls, and yield each failing call as (batch index,
    log id, focal row, positions of the invariants it fails, {binding name:
    rows}).

    Each batch's invariants become one generated check
    (`dsl.compile_checks`), which joins only the bindings they quantify
    over and hands back the rows it joined for a failing call; only the
    calls and environment attributes those read are projected. DB rows are
    views into a sweeping cursor: use them before the next call is
    requested.
    """
    from .dsl import compile_checks, field_refs, quantified_names

    schemas = []
    env_attrs: dict[str, set] = {}
    for schema, invs in batches:
        only = set().union(*(quantified_names(inv.body) for inv in invs))
        schemas.append((schema, only))
        refs = [ref for inv in invs for ref in field_refs(inv.body)]
        for binding in _joined(schema, only):
            if binding.relationship.kind == API_ENV:
                read = env_attrs.setdefault(binding.entity.name, set())
                read.update(ref.path for ref in refs if ref.root == binding.name)
    stores.project(Sweep.apis_read(schemas))
    sweep = Sweep(stores, schemas, {e: frozenset(paths) for e, paths in env_attrs.items()})
    checks, calls = [], []
    for k, (schema, invs) in enumerate(batches):
        name = schema.focal.name
        checks.append(compile_checks(invs, partial(sweep.emit, focal_name=name)))
        calls.extend((row["time"], log_id, row, k) for log_id, row in stores.instances(name).rows)
    # log ids are unique, so the sort never compares rows
    calls.sort()

    advance = sweep.advance
    pending = -math.inf  # time of the first version no cursor has applied
    for t, log_id, row, k in calls:
        if t > pending:
            pending = advance(t)
        failed = checks[k](row)
        if failed:
            yield k, log_id, row, *failed


def iter_joined_groups(
    stores: JoinStores,
    schema: JoinedSchema,
    rows: list[tuple[int, dict]] | None = None,
    only: set[str] | None = None,
) -> Iterator[JoinedGroup]:
    """Stream one group per focal call with every binding's rows attached.

    The sweep only moves forward, so caller-supplied `rows` are taken in
    time order, by a stable sort that keeps their order among equal times.
    DB bindings are views into a sweeping cursor: each yielded group must be
    fully consumed before the next one is requested. Copy the binding lists
    (or use build_joined_groups) to keep groups around.
    """
    if rows is None:
        rows = stores.instances(schema.focal.name).rows
    else:
        rows = sorted(rows, key=lambda item: item[1]["time"])
    sweep = Sweep(stores, [(schema, only)])
    bindings_of = sweep.group_bindings(schema.focal.name)
    for log_id, row in rows:
        sweep.advance(row["time"])
        yield JoinedGroup(log_id=log_id, focal=row, bindings=bindings_of(row))


def build_joined_groups(
    stores: JoinStores, schema: JoinedSchema
) -> list[JoinedGroup]:
    """One group per focal call, with binding rows copied out as lists: the
    input of refine.refine_candidates. The pipeline keeps no group list."""
    groups = []
    for group in iter_joined_groups(stores, schema):
        group.bindings = {name: list(rows) for name, rows in group.bindings.items()}
        groups.append(group)
    return groups
