"""Join engine: the as-of lookups of every binding kind and streamed
groups, checked against the reference joins in oracles.py."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apivet.binlog import ingest_binlog
from apivet.detector import check_corpus
from apivet.dsl import parse_invariant
from apivet.errors import SchemaError, StoreLookupError
from apivet.joins import (
    JoinStores,
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

from conftest import api_line, env_line, row_event
from oracles import api_join_oracle, canonical_key, db_join_oracle, env_join_oracle


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
    """Rows the public join path binds to each focal row, in their order."""
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

    def test_a_link_to_a_non_key_column_is_refused(self):
        by_user = rel(API_DB, "payOrder", "arguments.orderId", "orders", "userId")
        inv = parse_invariant(
            "INVARIANT placed ON payOrder CATEGORY database WHERE EXISTS(orders: TRUE)"
        )
        with pytest.raises(SchemaError) as err:
            check_corpus(self.bundle, self.corpus, self.stores.tables, [by_user], [inv])
        problem = "target column 'userId' is not the primary key of 'orders'"
        assert str(err.value) == f"relationship 0: {problem}"
        # the library's group builders take links no admission vetted
        with pytest.raises(SchemaError, match=f"^{problem}$"):
            join_rows(self.stores, by_user, [self.db_call("u1", 60)])

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
            self.stores.key_index("missing")


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


# one table's version stream: per event, a key, whether a live key's event
# deletes it (else it updates it) and the ts step from the event before; a
# key that is not live is inserted, also after its delete. 1 and 1.0 are one
# key, true and "1" two others
STREAM_KEYS = (1, 2, 2.0, 2**70, True, "1", "a", "")
STREAMS = st.lists(
    st.tuples(st.sampled_from(STREAM_KEYS), st.booleans(), st.integers(0, 2)),
    min_size=1, max_size=30,
)
# probed values: every key, one no version holds, and null
PROBES = st.lists(
    st.tuples(st.sampled_from(STREAM_KEYS + ("ghost", None)), st.integers(0, 64)),
    min_size=1, max_size=20,
)


def version_stream(draws):
    events, live, ts = [], {}, 0
    for i, (key, deletes, step) in enumerate(draws):
        ts += step
        row = {"id": key, "userId": f"u{i}", "status": "unpaid"}
        live_key = canonical_key(key)
        if live_key not in live:
            events.append(row_event("orders", "insert", ts, after=row, ordinal=i))
            live[live_key] = row
        elif deletes:
            events.append(row_event("orders", "delete", ts, before=live.pop(live_key),
                                    ordinal=i))
        else:
            events.append(row_event("orders", "update", ts, before=live[live_key], after=row,
                                    ordinal=i))
            live[live_key] = row
    return events


class TestKeyIndex:
    """A table binding is the one row of its key's last version strictly
    before the call, looked up in JoinStores.key_index."""

    @settings(max_examples=200, deadline=None)
    @given(draws=STREAMS, probes=PROBES)
    def test_as_of_lookups_match_the_oracle(self, draws, probes):
        events = version_stream(draws)
        _, _, stores = make_stores([], events)
        link = rel(API_DB, "payOrder", "arguments.orderId", "orders", "id")
        calls = [{"arguments.orderId": value, "time": t, "sessionId": "s1"}
                 for value, t in probes]
        for (value, t), rows in zip(probes, join_rows(stores, link, calls)):
            assert rows == db_join_oracle(events, "id", value, t)

    def test_index_groups_each_key_in_stream_order(self):
        _, _, stores = make_stores([])
        index = stores.key_index("orders")
        assert index is stores.key_index("orders")
        assert {key: [(ts, row and row["status"]) for ts, _, _, row in versions]
                for key, versions in index.items()} == {
            ("s", "o1"): [(10, "unpaid"), (20, "paid"), (50, "cancelled")],
            ("s", "o2"): [(10, "unpaid"), (30, None)],
            ("s", "o3"): [(40, "unpaid")],
        }

    def test_a_rekeying_update_moves_the_row_to_its_new_key(self):
        # lenient replay keeps an update that changes the key: the old key
        # gets a tombstone and the new one a version at the same (ts, ordinal)
        events = order_events() + [
            row_event("orders", "update", 60, ordinal=6,
                      before={"id": "o3", "userId": "u1", "status": "unpaid"},
                      after={"id": "o4", "userId": "u2", "status": "paid"}),
        ]
        bundle = join_bundle()
        stores = JoinStores(bundle, ingest_logs([]), ingest_binlog(events, bundle))
        link = rel(API_DB, "payOrder", "arguments.orderId", "orders", "id")
        probes = [(key, t) for key in ("o3", "o4") for t in (60, 61)]
        calls = [{"arguments.orderId": key, "time": t, "sessionId": "s1"} for key, t in probes]
        got = join_rows(stores, link, calls)
        assert got == [db_join_oracle(events, "id", key, t) for key, t in probes]
        assert [[row["id"] for row in rows] for rows in got] == [["o3"], [], [], ["o4"]]

    def test_one_and_true_are_two_keys(self):
        events = [
            row_event("orders", "insert", 10, after={"id": True, "status": "a"}, ordinal=0),
            row_event("orders", "insert", 10, after={"id": 1, "status": "b"}, ordinal=1),
        ]
        _, _, stores = make_stores([], events)
        link = rel(API_DB, "payOrder", "arguments.orderId", "orders", "id")
        calls = [{"arguments.orderId": value, "time": 11, "sessionId": "s1"}
                 for value in (True, 1, 1.0, "1")]
        assert [[row["status"] for row in rows]
                for rows in join_rows(stores, link, calls)] == [["a"], ["b"], ["b"], []]


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
        # every lookup is as of its call: caller rows in any order give
        # each log id the focal row and bindings it gets from the sorted
        # rows, in the caller's order
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
        assert list(joined(shuffled)) == [log_id for log_id, _ in shuffled]
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
