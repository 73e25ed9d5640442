"""Join engine: reference joins, the sweeping cursor, and streamed groups."""

import random

import pytest

from apivet.binlog import ingest_binlog
from apivet.joins import (
    BucketRows,
    DbJoinCursor,
    JoinStores,
    binding_names,
    build_joined_groups,
    iter_joined_groups,
    join_api_api,
    join_api_db,
    join_api_env,
    joined_schema_for,
)
from apivet.logstore import ingest_logs
from apivet.relations import API_API, API_DB, API_ENV, Relationship
from apivet.schema import (
    flatten_api_signature,
    load_env_descriptor,
    merge_bundle,
    parse_create_table,
)

from conftest import api_line, env_line, row_event
from oracles import api_join_oracle, db_join_oracle, env_join_oracle


def rel(kind, focal, fattr, target, tattr, **kw):
    return Relationship(kind, focal, fattr, target, tattr, **kw)


def join_bundle():
    login = flatten_api_signature("login", {"loginId": "string"}, {"userId": "string"})
    pay = flatten_api_signature(
        "payOrder", {"orderId": "string"}, {"status": "string"}
    )
    tables = parse_create_table(
        "CREATE TABLE orders (id VARCHAR(64) PRIMARY KEY, userId VARCHAR(64), "
        "status VARCHAR(16));"
    )
    env = load_env_descriptor({"sessionId": "string", "userId": "string"})
    return merge_bundle([login, pay] + tables + [env])


def order_events():
    # o1 changes status twice, o2 is deleted, o3 arrives late
    events = [
        row_event("orders", "insert", 10, after={"id": "o1", "userId": "u1", "status": "unpaid"}),
        row_event("orders", "insert", 10, after={"id": "o2", "userId": "u2", "status": "unpaid"}),
        row_event("orders", "update", 20, before={"id": "o1", "userId": "u1", "status": "unpaid"},
                  after={"id": "o1", "userId": "u1", "status": "paid"}),
        row_event("orders", "delete", 30, before={"id": "o2", "userId": "u2", "status": "unpaid"}),
        row_event("orders", "insert", 40, after={"id": "o3", "userId": "u1", "status": "unpaid"}),
        row_event("orders", "update", 50, before={"id": "o1", "userId": "u1", "status": "paid"},
                  after={"id": "o1", "userId": "u1", "status": "cancelled"}),
    ]
    for i, ev in enumerate(events):
        object.__setattr__(ev, "ordinal", i)
    return events


def make_stores(lines, events=None):
    bundle = join_bundle()
    corpus = ingest_logs(lines)
    tables = ingest_binlog(events or order_events(), bundle, mode="strict")
    return bundle, corpus, JoinStores(bundle, corpus, tables)


def sorted_rows(rows):
    return sorted(rows, key=lambda r: r["id"])


class TestBindingNames:
    def test_lone_target_borrows_its_name(self):
        rels = [rel(API_DB, "payOrder", "arguments.orderId", "orders", "id")]
        assert binding_names(rels) == ["orders"]

    def test_repeat_target_is_suffixed_with_focal_attr(self):
        rels = [
            rel(API_DB, "payOrder", "arguments.orderId", "orders", "id"),
            rel(API_DB, "payOrder", "response.orderId", "orders", "id"),
        ]
        assert binding_names(rels) == [
            "orders__arguments_orderId",
            "orders__response_orderId",
        ]

    def test_residual_tie_adds_target_attr_then_counter(self):
        rels = [
            rel(API_DB, "payOrder", "arguments.orderId", "orders", "id"),
            rel(API_DB, "payOrder", "arguments.orderId", "orders", "userId"),
        ]
        assert binding_names(rels) == [
            "orders__arguments_orderId__id",
            "orders__arguments_orderId__userId",
        ]
        twice = [
            rel(API_DB, "payOrder", "arguments.orderId", "orders", "id"),
            rel(API_DB, "payOrder", "arguments.orderId", "orders", "id", delta_ms=None),
        ]
        assert binding_names(twice) == [
            "orders__arguments_orderId__id",
            "orders__arguments_orderId__id_2",
        ]

    def test_mixed_targets_stay_plain(self):
        rels = [
            rel(API_DB, "payOrder", "arguments.orderId", "orders", "id"),
            rel(API_API, "payOrder", None, "login", None, delta_ms=60000),
            rel(API_ENV, "payOrder", "arguments.loginId", "Env", "userId"),
        ]
        assert binding_names(rels) == ["orders", "login", "Env"]


class TestReferenceJoins:
    def setup_method(self):
        lines = [
            api_line("payOrder", 25, "s1", {"orderId": "o1"}, {"status": "paid"}),
        ]
        self.bundle, self.corpus, self.stores = make_stores(lines)
        self.db_rel = rel(API_DB, "payOrder", "arguments.orderId", "orders", "id")

    def db_call(self, order_id, t):
        return {"arguments.orderId": order_id, "time": t, "sessionId": "s1"}

    def test_db_join_respects_version_history(self):
        # event timestamps are exclusive: the t=20 update is invisible at t=20
        assert join_api_db(self.stores, self.db_rel, self.db_call("o1", 10)) == []
        assert join_api_db(self.stores, self.db_rel, self.db_call("o1", 11))[0]["status"] == "unpaid"
        assert join_api_db(self.stores, self.db_rel, self.db_call("o1", 20))[0]["status"] == "unpaid"
        assert join_api_db(self.stores, self.db_rel, self.db_call("o1", 21))[0]["status"] == "paid"
        assert join_api_db(self.stores, self.db_rel, self.db_call("o1", 51))[0]["status"] == "cancelled"

    def test_db_join_sees_deletes_and_null_args(self):
        assert join_api_db(self.stores, self.db_rel, self.db_call("o2", 30))[0]["id"] == "o2"
        assert join_api_db(self.stores, self.db_rel, self.db_call("o2", 31)) == []
        assert join_api_db(self.stores, self.db_rel, self.db_call(None, 31)) == []

    def test_db_join_matches_oracle_on_non_key_column(self):
        by_user = rel(API_DB, "payOrder", "arguments.orderId", "orders", "userId")
        for t in (5, 10, 11, 25, 35, 41, 60):
            got = sorted_rows(join_api_db(self.stores, by_user, self.db_call("u1", t)))
            want = sorted_rows(db_join_oracle(order_events(), "userId", "u1", t))
            assert got == want

    def test_api_join_window_is_open_on_both_ends(self):
        lines = [
            api_line("login", 1000, "s1", {"loginId": "u1"}, {"userId": "u1"}),
            api_line("login", 1500, "s1", {"loginId": "u1"}, {"userId": "u1"}),
            api_line("login", 2000, "s2", {"loginId": "u2"}, {"userId": "u2"}),
            api_line("payOrder", 2000, "s1", {"orderId": "o1"}, {"status": "paid"}),
        ]
        bundle, corpus, stores = make_stores(lines)
        api_rel = rel(API_API, "payOrder", None, "login", None, delta_ms=1000)
        focal = {"time": 2000, "sessionId": "s1"}
        got = join_api_api(stores, api_rel, focal)
        # t - delta == 1000 is excluded, t == 2000 is excluded, other session ignored
        assert [r["time"] for r in got] == [1500]
        calls = [{"time": t, "sessionId": s} for _, t, s in
                 [(0, 1000, "s1"), (0, 1500, "s1"), (0, 2000, "s2")]]
        want = api_join_oracle(calls, "s1", 2000, 1000)
        assert [r["time"] for r in want] == [1500]

    def test_api_join_orders_by_time_then_id(self):
        lines = [
            api_line("login", 100, "s1", {"loginId": "b"}, {"userId": "b"}),
            api_line("login", 100, "s1", {"loginId": "a"}, {"userId": "a"}),
            api_line("payOrder", 200, "s1", {"orderId": "o1"}, {"status": "paid"}),
        ]
        bundle, corpus, stores = make_stores(lines)
        api_rel = rel(API_API, "payOrder", None, "login", None, delta_ms=60000)
        got = join_api_api(stores, api_rel, {"time": 200, "sessionId": "s1"})
        # equal times fall back to ingest order
        assert [r["arguments.loginId"] for r in got] == ["b", "a"]

    def test_env_join_returns_singleton_or_nothing(self):
        lines = [
            env_line("s1", {"sessionId": "s1", "userId": "u1"}),
            api_line("payOrder", 25, "s1", {"orderId": "o1"}, {"status": "paid"}),
        ]
        bundle, corpus, stores = make_stores(lines)
        env_rel = rel(API_ENV, "payOrder", "arguments.loginId", "Env", "userId")
        got = join_api_env(stores, env_rel, {"time": 25, "sessionId": "s1"})
        assert len(got) == 1 and got[0]["userId"] == "u1"
        assert join_api_env(stores, env_rel, {"time": 25, "sessionId": "sX"}) == []
        oracle = env_join_oracle(corpus.env_records, "s1")
        assert len(oracle) == 1 and oracle[0].fields["userId"] == "u1"


class TestDbJoinCursor:
    def setup_method(self):
        _, _, self.stores = make_stores(
            [api_line("payOrder", 25, "s1", {"orderId": "o1"}, {"status": "paid"})]
        )
        self.rel = rel(API_DB, "payOrder", "arguments.orderId", "orders", "userId")
        self.events = self.stores.column_events("orders", "userId")

    def probe(self, cursor, value, t):
        return sorted_rows(list(cursor.rows_as_of(value, t)))

    def reference(self, value, t):
        row = {"arguments.orderId": value, "time": t, "sessionId": "s1"}
        return sorted_rows(join_api_db(self.stores, self.rel, row))

    def test_forward_sweep_matches_reference(self):
        cursor = DbJoinCursor(self.events)
        for t in (5, 10, 11, 20, 21, 30, 31, 40, 41, 50, 51, 99):
            for value in ("u1", "u2", "u3"):
                assert self.probe(cursor, value, t) == self.reference(value, t)

    def test_backward_time_rewinds(self):
        cursor = DbJoinCursor(self.events)
        assert self.probe(cursor, "u1", 99) == self.reference("u1", 99)
        # going back in time replays the stream from scratch
        assert self.probe(cursor, "u1", 11) == self.reference("u1", 11)
        assert self.probe(cursor, "u2", 11) == self.reference("u2", 11)
        assert self.probe(cursor, "u1", 60) == self.reference("u1", 60)

    def test_rekeying_update_ties_on_ts_and_ordinal(self):
        # lenient ingest keeps an update that changes the key: the old chain
        # gets a tombstone and the new one a version at the same (ts, ordinal)
        events = order_events() + [
            row_event("orders", "update", 60, ordinal=6,
                      before={"id": "o3", "userId": "u1", "status": "unpaid"},
                      after={"id": "o4", "userId": "u2", "status": "unpaid"}),
        ]
        bundle = join_bundle()
        self.stores = JoinStores(bundle, ingest_logs([]), ingest_binlog(events, bundle))
        cursor = DbJoinCursor(self.stores.column_events("orders", "userId"))
        for t in (55, 60, 61, 99):
            for value in ("u1", "u2"):
                assert self.probe(cursor, value, t) == self.reference(value, t)
        assert [r["id"] for r in cursor.rows_as_of("u2", 99)] == ["o4"]

    def test_unseen_value_yields_empty(self):
        cursor = DbJoinCursor(self.events)
        assert list(cursor.rows_as_of("ghost", 99)) == []
        assert not cursor.rows_as_of("ghost", 99)

    def test_random_probe_schedule_matches_reference(self):
        rng = random.Random(7)
        cursor = DbJoinCursor(self.events)
        for _ in range(300):
            t = rng.randrange(0, 70)
            value = rng.choice(["u1", "u2", "u3", None])
            if value is None:
                continue
            assert self.probe(cursor, value, t) == self.reference(value, t)


class TestBucketRows:
    def make(self, n):
        return BucketRows({i: {"id": f"o{i}"} for i in range(n)})

    def test_len_iter_bool(self):
        view = self.make(3)
        assert len(view) == 3 and bool(view)
        assert [r["id"] for r in view] == ["o0", "o1", "o2"]
        assert not self.make(0)

    def test_indexing_and_slicing(self):
        view = self.make(5)
        assert view[0] == {"id": "o0"}
        assert [r["id"] for r in view[:3]] == ["o0", "o1", "o2"]
        assert isinstance(view[:3], tuple)


class TestJoinedGroups:
    def full_lines(self):
        lines = []
        for i, t in enumerate((100, 1000, 25000, 61500)):
            sid = f"s{i % 2}"
            lines.append(env_line(sid, {"sessionId": sid, "userId": f"u{i % 2 + 1}"}))
            lines.append(api_line("login", t - 50, sid, {"loginId": f"u{i}"}, {"userId": f"u{i}"}))
            lines.append(api_line("payOrder", t, sid, {"orderId": f"o{1 + i % 3}"}, {"status": "paid"}))
        return lines

    def schema_and_stores(self):
        bundle, corpus, stores = make_stores(self.full_lines())
        rels = [
            rel(API_DB, "payOrder", "arguments.orderId", "orders", "id"),
            rel(API_API, "payOrder", None, "login", None, delta_ms=60000),
            rel(API_ENV, "payOrder", "arguments.loginId", "Env", "userId"),
        ]
        return stores, joined_schema_for(bundle, "payOrder", rels)

    def test_streamed_equals_built(self):
        stores, schema = self.schema_and_stores()
        built = build_joined_groups(stores, schema)
        streamed = []
        for group in iter_joined_groups(stores, schema):
            streamed.append(
                (group.log_id, group.focal,
                 {name: list(rows) for name, rows in group.bindings.items()})
            )
        assert len(built) == len(streamed) == 4
        for have, (log_id, focal, bindings) in zip(built, streamed):
            assert have.log_id == log_id
            assert have.focal is focal
            assert have.bindings == bindings
            assert set(bindings) == {"orders", "login", "Env"}

    def test_groups_match_reference_joins(self):
        stores, schema = self.schema_and_stores()
        by_binding = {b.name: b.relationship for b in schema.bindings}
        for group in build_joined_groups(stores, schema):
            assert sorted_rows(group.bindings["orders"]) == sorted_rows(
                join_api_db(stores, by_binding["orders"], group.focal)
            )
            assert group.bindings["login"] == list(
                join_api_api(stores, by_binding["login"], group.focal)
            )
            assert group.bindings["Env"] == list(
                join_api_env(stores, by_binding["Env"], group.focal)
            )

    def test_only_prunes_unused_bindings(self):
        stores, schema = self.schema_and_stores()
        groups = list(iter_joined_groups(stores, schema, only={"orders"}))
        assert all(set(g.bindings) == {"orders"} for g in groups)
        groups = list(iter_joined_groups(stores, schema, only=set()))
        assert all(g.bindings == {} for g in groups)

    def test_explicit_rows_override_the_corpus(self):
        stores, schema = self.schema_and_stores()
        rows = stores.instances("payOrder").rows[:2]
        groups = list(iter_joined_groups(stores, schema, rows=rows))
        assert [g.log_id for g in groups] == [r[0] for r in rows]


class TestRandomizedAgreement:
    def test_streamed_db_binding_matches_oracle(self):
        rng = random.Random(31)
        events = []
        live = {}
        ts = 1
        for _ in range(120):
            ts += rng.randrange(0, 3)
            oid = f"o{rng.randrange(8)}"
            if oid not in live:
                row = {"id": oid, "userId": f"u{rng.randrange(3)}", "status": "unpaid"}
                events.append(row_event("orders", "insert", ts, after=row))
                live[oid] = row
            elif rng.random() < 0.3:
                events.append(row_event("orders", "delete", ts, before=live.pop(oid)))
            else:
                new = dict(live[oid], userId=f"u{rng.randrange(3)}")
                events.append(row_event("orders", "update", ts, before=live[oid], after=new))
                live[oid] = new
        for i, ev in enumerate(events):
            object.__setattr__(ev, "ordinal", i)

        lines = []
        for k in range(60):
            t = rng.randrange(1, ts + 5)
            lines.append(api_line("payOrder", t, f"s{k}", {"orderId": f"o{rng.randrange(8)}"},
                                  {"status": "paid"}))
        bundle = join_bundle()
        corpus = ingest_logs(lines)
        tables = ingest_binlog(events, bundle, mode="strict")
        stores = JoinStores(bundle, corpus, tables)
        schema = joined_schema_for(
            bundle, "payOrder",
            [rel(API_DB, "payOrder", "arguments.orderId", "orders", "id")],
        )
        for group in iter_joined_groups(stores, schema):
            got = sorted_rows(list(group.bindings["orders"]))
            want = sorted_rows(db_join_oracle(
                events, "id", group.focal["arguments.orderId"], group.focal["time"]
            ))
            assert got == want
