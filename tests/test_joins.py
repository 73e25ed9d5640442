"""Join engine: the sweeping table cursor and streamed groups, checked
against the reference joins in oracles.py."""

import random

import pytest

from apivet.binlog import ingest_binlog
from apivet.detector import check_corpus
from apivet.dsl import parse_invariant
from apivet.errors import StoreLookupError
from apivet.joins import (
    JoinStores,
    TableCursor,
    binding_names,
    build_joined_groups,
    failing_calls,
    iter_joined_groups,
    joined_schema_for,
)
from apivet.logstore import ingest_logs
from apivet.relations import API_API, API_DB, API_ENV, Relationship
from apivet.schema import merge_bundle
from apivet.sources import flatten_api_signature, load_env_descriptor, parse_create_table
from apivet.values import value_key

from conftest import api_line, env_line, row_event
from oracles import api_join_oracle, canonical_key, db_join_oracle, env_join_oracle


def rows_at(cursor, column, value, t):
    """The rows a generated join reads for `value` on `column` at time t."""
    cursor.advance(t)
    return list(cursor.buckets[column].get(value_key(value), {}).values())


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


def join_rows(stores, relationship, focal_rows):
    """Rows the public join path binds to each focal row, in one sweep."""
    schema = joined_schema_for(stores.bundle, relationship.focal_entity, [relationship])
    (binding,) = schema.bindings
    rows = list(enumerate(focal_rows))
    return [
        list(group.bindings[binding.name])
        for group in iter_joined_groups(stores, schema, rows=rows)
    ]


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
    """Each binding kind through iter_joined_groups, against oracles.py."""

    def setup_method(self):
        lines = [
            api_line("payOrder", 25, "s1", {"orderId": "o1"}, {"status": "paid"}),
        ]
        self.bundle, self.corpus, self.stores = make_stores(lines)
        self.db_rel = rel(API_DB, "payOrder", "arguments.orderId", "orders", "id")

    def db_call(self, order_id, t):
        return {"arguments.orderId": order_id, "time": t, "sessionId": "s1"}

    def db_join(self, order_id, t):
        (rows,) = join_rows(self.stores, self.db_rel, [self.db_call(order_id, t)])
        assert sorted_rows(rows) == sorted_rows(
            db_join_oracle(order_events(), "id", order_id, t)
        )
        return rows

    def test_db_join_respects_version_history(self):
        # event timestamps are exclusive: the t=20 update is invisible at t=20
        assert self.db_join("o1", 10) == []
        assert self.db_join("o1", 11)[0]["status"] == "unpaid"
        assert self.db_join("o1", 20)[0]["status"] == "unpaid"
        assert self.db_join("o1", 21)[0]["status"] == "paid"
        assert self.db_join("o1", 51)[0]["status"] == "cancelled"

    def test_db_join_sees_deletes_and_null_args(self):
        assert self.db_join("o2", 30)[0]["id"] == "o2"
        assert self.db_join("o2", 31) == []
        assert self.db_join(None, 31) == []

    def test_db_join_matches_oracle_on_non_key_column(self):
        by_user = rel(API_DB, "payOrder", "arguments.orderId", "orders", "userId")
        times = (5, 10, 11, 25, 35, 41, 60)
        got = join_rows(self.stores, by_user, [self.db_call("u1", t) for t in times])
        for t, rows in zip(times, got):
            want = sorted_rows(db_join_oracle(order_events(), "userId", "u1", t))
            assert sorted_rows(rows) == want
        assert any(got)

    def test_api_join_window_is_open_on_both_ends(self):
        lines = [
            api_line("login", 1000, "s1", {"loginId": "u1"}, {"userId": "u1"}),
            api_line("login", 1500, "s1", {"loginId": "u1"}, {"userId": "u1"}),
            api_line("login", 2000, "s2", {"loginId": "u2"}, {"userId": "u2"}),
            api_line("payOrder", 2000, "s1", {"orderId": "o1"}, {"status": "paid"}),
        ]
        bundle, corpus, stores = make_stores(lines)
        api_rel = rel(API_API, "payOrder", None, "login", None, delta_ms=1000)
        (group,) = build_joined_groups(stores, joined_schema_for(bundle, "payOrder", [api_rel]))
        got = group.bindings["login"]
        # t - delta == 1000 is excluded, t == 2000 is excluded, other session ignored
        assert [r["time"] for r in got] == [1500]
        calls = [row for _, row in stores.instances("login").rows]
        assert got == api_join_oracle(calls, "s1", 2000, 1000)

    def test_api_join_orders_by_time_then_id(self):
        lines = [
            api_line("login", 100, "s1", {"loginId": "b"}, {"userId": "b"}),
            api_line("login", 100, "s1", {"loginId": "a"}, {"userId": "a"}),
            api_line("payOrder", 200, "s1", {"orderId": "o1"}, {"status": "paid"}),
        ]
        bundle, corpus, stores = make_stores(lines)
        api_rel = rel(API_API, "payOrder", None, "login", None, delta_ms=60000)
        (got,) = join_rows(stores, api_rel, [{"time": 200, "sessionId": "s1"}])
        # equal times fall back to ingest order
        assert [r["arguments.loginId"] for r in got] == ["b", "a"]

    def test_env_join_returns_singleton_or_nothing(self):
        lines = [
            env_line("s1", {"sessionId": "s1", "userId": "u1"}),
            api_line("payOrder", 25, "s1", {"orderId": "o1"}, {"status": "paid"}),
        ]
        bundle, corpus, stores = make_stores(lines)
        env_rel = rel(API_ENV, "payOrder", "arguments.loginId", "Env", "userId")
        got, missing = join_rows(
            stores, env_rel, [{"time": 25, "sessionId": "s1"}, {"time": 25, "sessionId": "sX"}]
        )
        assert len(got) == 1 and got[0]["userId"] == "u1"
        assert missing == []
        oracle = env_join_oracle(corpus.env_records, "s1", 25)
        assert len(oracle) == 1 and oracle[0].fields["userId"] == "u1"
        assert env_join_oracle(corpus.env_records, "sX", 25) == []

    def test_unknown_table_rejected(self):
        with pytest.raises(StoreLookupError):
            self.stores.column_events("missing", "id")
        with pytest.raises(StoreLookupError):
            self.stores.column_keys("missing", "id")


class TestEnvAsOf:
    env_rel = rel(API_ENV, "payOrder", "arguments.loginId", "Env", "userId")

    def joined(self, lines, session_id, t):
        _, corpus, stores = make_stores(lines)
        (rows,) = join_rows(stores, self.env_rel, [{"time": t, "sessionId": session_id}])
        got = [r["userId"] for r in rows]
        want = [r.fields["userId"] for r in env_join_oracle(corpus.env_records, session_id, t)]
        assert got == want
        return got

    def test_record_written_after_the_call_is_not_joined(self):
        lines = [
            env_line("s1", {"sessionId": "s1", "userId": "u1"}, time=10),
            env_line("s1", {"sessionId": "s1", "userId": "u2"}, time=30),
        ]
        assert self.joined(lines, "s1", 20) == ["u1"]
        assert self.joined(lines, "s1", 31) == ["u2"]
        assert self.joined(lines, "s1", 5) == []

    def test_tie_at_the_call_time_is_not_joined(self):
        lines = [
            env_line("s1", {"sessionId": "s1", "userId": "u1"}, time=10),
            env_line("s1", {"sessionId": "s1", "userId": "u2"}, time=20),
        ]
        assert self.joined(lines, "s1", 20) == ["u1"]
        assert self.joined(lines, "s1", 10) == []

    def test_equal_times_keep_file_order(self):
        lines = [
            env_line("s1", {"sessionId": "s1", "userId": "u2"}, time=10),
            env_line("s1", {"sessionId": "s1", "userId": "u1"}, time=10),
        ]
        assert self.joined(lines, "s1", 11) == ["u1"]

    def test_untimed_record_counts_as_earliest(self):
        untimed = [
            env_line("s1", {"sessionId": "s1", "userId": "u1"}),
            env_line("s1", {"sessionId": "s1", "userId": "u2"}),
        ]
        # without times the last record in file order wins, as before
        assert self.joined(untimed, "s1", 0) == ["u2"]
        mixed = untimed + [env_line("s1", {"sessionId": "s1", "userId": "u3"}, time=50)]
        assert self.joined(mixed, "s1", 50) == ["u2"]
        assert self.joined(mixed, "s1", 51) == ["u3"]

    def test_streamed_env_binding_matches_oracle(self):
        rng = random.Random(13)
        lines = []
        for _ in range(80):
            sid = f"s{rng.randrange(6)}"
            t = rng.choice([None, rng.randrange(0, 100)])
            lines.append(env_line(sid, {"sessionId": sid, "userId": f"u{rng.randrange(9)}"}, t))
        for _ in range(120):
            lines.append(api_line("payOrder", rng.randrange(0, 110), f"s{rng.randrange(8)}",
                                  {"orderId": "o1"}, {"status": "paid"}))
        rng.shuffle(lines)
        bundle, corpus, stores = make_stores(lines)
        schema = joined_schema_for(bundle, "payOrder", [self.env_rel])
        for group in iter_joined_groups(stores, schema):
            want = env_join_oracle(
                corpus.env_records, group.focal["sessionId"], group.focal["time"]
            )
            assert [r["userId"] for r in group.bindings["Env"]] == [
                r.fields["userId"] for r in want
            ]


class TestTableCursor:
    def setup_method(self):
        _, _, self.stores = make_stores(
            [api_line("payOrder", 25, "s1", {"orderId": "o1"}, {"status": "paid"})]
        )
        self.row_events = order_events()
        self.events = self.stores.table_events("orders")

    def probe(self, cursor, value, t, column="userId"):
        return sorted_rows(rows_at(cursor, column, value, t))

    def reference(self, value, t, column="userId"):
        return sorted_rows(db_join_oracle(self.row_events, column, value, t))

    def test_forward_sweep_matches_reference(self):
        cursor = TableCursor(self.events, ["userId"])
        for t in (5, 10, 11, 20, 21, 30, 31, 40, 41, 50, 51, 99):
            for value in ("u1", "u2", "u3"):
                assert self.probe(cursor, value, t) == self.reference(value, t)

    def test_every_indexed_column_matches_reference(self):
        cursor = TableCursor(self.events, ["userId", "id", "status"])
        cases = {"userId": ("u1", "u2"), "id": ("o1", "o2", "o3"),
                 "status": ("paid", "unpaid", "cancelled")}
        for t in (5, 11, 21, 31, 41, 51, 99):
            for column, values in cases.items():
                for value in values:
                    assert self.probe(cursor, value, t, column) == self.reference(
                        value, t, column
                    )

    def test_bucket_maps_are_updated_in_place(self):
        cursor = TableCursor(self.events, ["userId"])
        index = cursor.buckets["userId"]
        cursor.advance(11)
        assert sorted_rows(index[("s", "u2")].values()) == self.reference("u2", 11)
        cursor.advance(99)  # moving on keeps the same map
        assert cursor.buckets["userId"] is index
        assert sorted_rows(index[("s", "u1")].values()) == self.reference("u1", 99)

    def test_an_update_moves_its_row_to_the_bucket_end(self):
        # a bucket lists its rows by last write, which the row[i] indices of
        # explanations follow: o1's update at 50 comes after o3's insert
        cursor = TableCursor(self.events, ["userId", "status"])
        assert [r["id"] for r in rows_at(cursor, "userId", "u1", 45)] == ["o1", "o3"]
        assert [r["id"] for r in rows_at(cursor, "userId", "u1", 51)] == ["o3", "o1"]

    def test_rekeying_update_ties_on_ts_and_ordinal(self):
        # lenient ingest keeps an update that changes the key: the old chain
        # gets a tombstone and the new one a version at the same (ts, ordinal)
        events = order_events() + [
            row_event("orders", "update", 60, ordinal=6,
                      before={"id": "o3", "userId": "u1", "status": "unpaid"},
                      after={"id": "o4", "userId": "u2", "status": "unpaid"}),
        ]
        bundle = join_bundle()
        self.row_events = events
        stores = JoinStores(bundle, ingest_logs([]), ingest_binlog(events, bundle))
        cursor = TableCursor(stores.table_events("orders"), ["userId"])
        for t in (55, 60, 61, 99):
            for value in ("u1", "u2"):
                assert self.probe(cursor, value, t) == self.reference(value, t)
        assert [r["id"] for r in rows_at(cursor, "userId", "u2", 99)] == ["o4"]

    def test_values_of_every_class_bucket_as_the_oracle_keys_them(self):
        # a string is keyed inline, any other value through value_key
        values = [None, True, False, 0, 1, 1.0, -2.5, 2**70, "", "1", "True",
                  [], [1], {}, {"a": 1}]
        rng = random.Random(3)
        events = [
            (ordinal // 2, ordinal, rng.randrange(8),
             None if rng.random() < 0.1 else {"v": rng.choice(values)})
            for ordinal in range(200)
        ]
        cursor = TableCursor(events, ["v"])
        for t in range(0, 102, 7):
            cursor.advance(t)
            live = {chain: row for ts, _, chain, row in events if ts < t}
            for value in values:
                want = {chain for chain, row in live.items()
                        if row is not None and value is not None
                        and canonical_key(row["v"]) == canonical_key(value)}
                assert set(cursor.buckets["v"].get(value_key(value), {})) == want

    def test_unseen_value_yields_empty(self):
        cursor = TableCursor(self.events, ["userId"])
        assert rows_at(cursor, "userId", "ghost", 99) == []
        assert ("s", "ghost") not in cursor.buckets["userId"]

    def test_random_probe_schedule_matches_reference(self):
        rng = random.Random(7)
        cursor = TableCursor(self.events, ["userId", "status"])
        # the cursor only moves forward: a non-decreasing schedule, with repeats
        for t in sorted(rng.randrange(0, 70) for _ in range(300)):
            column = rng.choice(["userId", "status"])
            value = rng.choice(["u1", "u2", "u3", "paid", "unpaid", None])
            if value is None:
                continue
            assert self.probe(cursor, value, t, column) == self.reference(value, t, column)


class TestBigIntegerKeys:
    """64-bit ids join exactly: 2**60 + 1 must not bind the row of 2**60,
    though both round to the same float."""

    def test_dangling_64_bit_reference_binds_nothing(self):
        bundle = merge_bundle(
            [flatten_api_signature("transfer", {"accountId": "int"}, {})]
            + parse_create_table(
                "CREATE TABLE accounts (id BIGINT PRIMARY KEY, owner VARCHAR(8));"
            )
        )
        corpus = ingest_logs([
            api_line("transfer", 20, "s1", {"accountId": 2**60 + 1}),
            api_line("transfer", 30, "s1", {"accountId": 2**60}),
        ])
        tables = ingest_binlog(
            [row_event("accounts", "insert", 10, after={"id": 2**60, "owner": "a"})],
            bundle,
            mode="strict",
        )
        link = rel(API_DB, "transfer", "arguments.accountId", "accounts", "id")
        stores = JoinStores(bundle, corpus, tables)
        calls = [row for _, row in stores.instances("transfer").rows]
        dangling, live = join_rows(stores, link, calls)
        assert dangling == [] and live == [{"id": 2**60, "owner": "a"}]

        inv = parse_invariant(
            "INVARIANT account_exists ON transfer CATEGORY database\n"
            "WHERE EXISTS(accounts: TRUE)"
        )
        result = check_corpus(bundle, corpus, tables, [link], [inv])
        assert [v.log_id for v in result.violations] == [0]


class TestCallOrder:
    lines = [
        api_line("payOrder", 30, "s2", {"orderId": "o1"}, {"status": "paid"}),
        api_line("payOrder", 10, "s1", {"orderId": "o2"}, {"status": "paid"}),
        api_line("payOrder", 30, "s1", {"orderId": "o3"}, {"status": "paid"}),
        api_line("payOrder", 20, "s2", {"orderId": "o4"}, {"status": "paid"}),
        api_line("payOrder", 10, "s2", {"orderId": "o5"}, {"status": "paid"}),
    ]

    def test_instances_are_sorted_by_time_then_id(self):
        _, _, stores = make_stores(self.lines)
        rows = stores.instances("payOrder").rows
        assert [(row["time"], log_id) for log_id, row in rows] == [
            (10, 1), (10, 4), (20, 3), (30, 0), (30, 2),
        ]

    def test_session_calls_are_sorted_by_session_time_then_id(self):
        _, _, stores = make_stores(self.lines)
        times, rows, spans = stores.session_calls("payOrder")
        assert [r["arguments.orderId"] for r in rows] == ["o2", "o3", "o5", "o4", "o1"]
        assert times == [10, 30, 10, 20, 30]
        assert spans == {"s1": (0, 2), "s2": (2, 5)}


class TestSharedCursor:
    def test_bindings_on_one_table_share_a_cursor(self, monkeypatch):
        import apivet.joins as joins

        built = []

        class CountingCursor(TableCursor):
            __slots__ = ()

            def __init__(self, events, columns):
                built.append((events, list(columns)))
                super().__init__(events, columns)

        monkeypatch.setattr(joins, "TableCursor", CountingCursor)
        lines = [
            api_line("login", t, "s1", {"loginId": u}, {"userId": v})
            for t, u, v in ((5, "u1", "u1"), (20, "u1", "u2"), (25, "u1", "u2"),
                            (45, "u2", "u1"), (99, "u1", "u1"))
        ]
        bundle, _, stores = make_stores(lines)
        rels = [
            rel(API_DB, "login", "arguments.loginId", "orders", "userId"),
            rel(API_DB, "login", "response.userId", "orders", "userId"),
            rel(API_DB, "login", "arguments.loginId", "orders", "id"),
        ]
        schema = joined_schema_for(bundle, "login", rels)
        groups = build_joined_groups(stores, schema)
        # two bindings on orders.userId and one on orders.id: one cursor
        # over the table's stream indexes both columns
        assert len(built) == 1
        assert built[0][0] is stores.table_events("orders")
        assert built[0][1] == ["userId", "id"]
        for group in groups:
            for binding in schema.bindings:
                r = binding.relationship
                assert sorted_rows(group.bindings[binding.name]) == sorted_rows(
                    db_join_oracle(
                        order_events(), r.target_attr, group.focal[r.focal_attr],
                        group.focal["time"],
                    )
                )
        assert any(group.bindings["orders__arguments_loginId__userId"] for group in groups)


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
        corpus = ingest_logs(self.full_lines())
        logins = [row for _, row in stores.instances("login").rows]
        for group in build_joined_groups(stores, schema):
            t, sid = group.focal["time"], group.focal["sessionId"]
            assert sorted_rows(group.bindings["orders"]) == sorted_rows(
                db_join_oracle(order_events(), "id", group.focal["arguments.orderId"], t)
            )
            assert group.bindings["login"] == api_join_oracle(logins, sid, t, 60000)
            assert group.bindings["Env"] == [
                r.fields for r in env_join_oracle(corpus.env_records, sid, t)
            ]

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
    def random_stores(self, shuffle=None):
        """60 payOrder calls at random times among 120 random order changes;
        with a `shuffle` seed, the log lines are shuffled by it."""
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
        if shuffle is not None:
            random.Random(shuffle).shuffle(lines)
        bundle = join_bundle()
        corpus = ingest_logs(lines)
        tables = ingest_binlog(events, bundle, mode="strict")
        stores = JoinStores(bundle, corpus, tables)
        schema = joined_schema_for(
            bundle, "payOrder",
            [rel(API_DB, "payOrder", "arguments.orderId", "orders", "id")],
        )
        return events, stores, schema

    def test_streamed_db_binding_matches_oracle(self):
        events, stores, schema = self.random_stores()
        for group in iter_joined_groups(stores, schema):
            got = sorted_rows(list(group.bindings["orders"]))
            want = sorted_rows(db_join_oracle(
                events, "id", group.focal["arguments.orderId"], group.focal["time"]
            ))
            assert got == want

    @pytest.mark.parametrize("seed", range(3))
    def test_shuffled_rows_join_as_the_sorted_rows(self, seed):
        # the cursor only moves forward, so caller rows in any order are
        # taken in time order: each log id gets the focal row and bindings
        # it gets from the sorted rows
        _, stores, schema = self.random_stores()

        def joined(rows):
            return {
                group.log_id: (group.focal,
                               {name: list(bound) for name, bound in group.bindings.items()})
                for group in iter_joined_groups(stores, schema, rows=rows)
            }

        rows = stores.instances("payOrder").rows
        shuffled = list(rows)
        random.Random(seed).shuffle(shuffled)
        assert shuffled != rows
        assert joined(shuffled) == joined(rows)
        assert len(joined(rows)) == 60


def failing_rows(stores, schema, body):
    """Each call failing_calls yields for one invariant `body` that always
    fails, as (focal row, {binding name: rows copied out}), checking that
    it yields every call once, in (time, log id) order."""
    inv = parse_invariant(f"INVARIANT every ON {schema.focal.name} CATEGORY database "
                          f"WHERE {body} AND FALSE")
    calls = []
    for k, log_id, row, failed, bindings in failing_calls(stores, [(schema, [inv])]):
        assert (k, failed) == (0, (0,))
        # DB rows are cursor views: copy them before the next call
        calls.append((row["time"], log_id, row,
                      {name: list(rows) for name, rows in bindings.items()}))
    assert [(t, log_id) for t, log_id, _, _ in calls] == sorted(
        (row["time"], log_id) for log_id, row in stores.instances(schema.focal.name).rows)
    return [(row, bindings) for _, _, row, bindings in calls]


class TestFailingCalls:
    """The rows a failing call's check hands back are its joins: with an
    invariant that quantifies every binding and always fails, every call's
    rows against the reference joins in oracles.py."""

    @pytest.mark.parametrize("seed", range(3))
    def test_db_rows_match_oracle_on_shuffled_lines(self, seed):
        events, stores, schema = TestRandomizedAgreement().random_stores(shuffle=seed)
        calls = failing_rows(stores, schema, "EXISTS(orders: TRUE)")
        assert len(calls) == 60
        for row, bindings in calls:
            assert bindings.keys() == {"orders"}
            assert sorted_rows(bindings["orders"]) == sorted_rows(db_join_oracle(
                events, "id", row["arguments.orderId"], row["time"]))
        assert any(bindings["orders"] for _, bindings in calls)

    @pytest.mark.parametrize("seed", range(3))
    def test_api_and_env_rows_match_oracle(self, seed):
        rng = random.Random(seed)
        lines = []
        for _ in range(40):  # timed and untimed environment records
            sid = f"s{rng.randrange(5)}"
            t = rng.choice([None, rng.randrange(0, 3000)])
            lines.append(env_line(sid, {"sessionId": sid, "userId": f"u{rng.randrange(4)}"}, t))
        for _ in range(60):
            lines.append(api_line("login", rng.randrange(0, 3000), f"s{rng.randrange(5)}",
                                  {"loginId": "u1"}, {"userId": "u1"}))
        for _ in range(60):
            lines.append(api_line("payOrder", rng.randrange(0, 3100), f"s{rng.randrange(6)}",
                                  {"orderId": f"o{rng.randrange(1, 4)}"}, {"status": "paid"}))
        rng.shuffle(lines)
        bundle, corpus, stores = make_stores(lines)
        schema = joined_schema_for(bundle, "payOrder", [
            rel(API_API, "payOrder", None, "login", None, delta_ms=500),
            rel(API_ENV, "payOrder", "arguments.loginId", "Env", "userId"),
        ])
        # the env quantifier reads every attribute, so each is projected
        calls = failing_rows(stores, schema, "EXISTS(login: TRUE) AND "
                             "EXISTS(Env: Env.sessionId == Env.userId)")
        logins = [row for _, row in stores.instances("login").rows]
        for row, bindings in calls:
            t, sid = row["time"], row["sessionId"]
            assert bindings.keys() == {"login", "Env"}
            assert bindings["login"] == api_join_oracle(logins, sid, t, 500)
            assert bindings["Env"] == [
                r.fields for r in env_join_oracle(corpus.env_records, sid, t)]
        for name in ("login", "Env"):
            assert any(bindings[name] for _, bindings in calls)
            assert not all(bindings[name] for _, bindings in calls)
