"""Temporal replay: parsing, version streams, point-in-time state."""

import random

import pytest

from apivet.binlog import (
    RowEvent,
    ingest_binlog,
    parse_row_events,
    read_binlog_file,
)
from apivet.errors import IngestError, ReplayError
from apivet.joins import JoinStores
from apivet.logstore import ingest_logs
from apivet.schema import merge_bundle
from apivet.sources import parse_create_table

from conftest import binlog_line, row_event, state_as_of, version_before
from oracles import replay_oracle_rows, universe_oracle


@pytest.fixture
def orders_bundle():
    return merge_bundle(
        parse_create_table(
            "CREATE TABLE orders (id VARCHAR(64) PRIMARY KEY, "
            "status ENUM('unpaid','paid','cancelled'), price DOUBLE);"
        )
    )


def seq(events):
    return [
        RowEvent(e.table, e.op, e.ts, e.before, e.after, ordinal=i)
        for i, e in enumerate(events)
    ]


def order_chain():
    """One order: inserted unpaid at 10, paid at 20, cancelled at 30."""
    base = {"id": "o1", "price": 9.5}
    unpaid = dict(base, status="unpaid")
    paid = dict(base, status="paid")
    cancelled = dict(base, status="cancelled")
    return seq(
        [
            row_event("orders", "insert", 10, None, unpaid),
            row_event("orders", "update", 20, unpaid, paid),
            row_event("orders", "update", 30, paid, cancelled),
        ]
    )


class TestParse:
    def test_parse_assigns_ordinals(self):
        lines = [
            binlog_line("t", "insert", 5, None, {"id": 1}),
            binlog_line("t", "delete", 6, {"id": 1}, None),
        ]
        events = parse_row_events(lines)
        assert [e.ordinal for e in events] == [0, 1]
        assert events[0].op == "insert"

    @pytest.mark.parametrize(
        "bad",
        [
            "{oops",
            binlog_line("", "insert", 5, None, {"id": 1}),
            binlog_line("t", "upsert", 5, None, {"id": 1}),
            binlog_line("t", "insert", -5, None, {"id": 1}),
            binlog_line("t", "insert", 5, {"id": 1}, {"id": 1}),
            binlog_line("t", "delete", 5, None, {"id": 1}),
            binlog_line("t", "update", 5, {"id": 1}, None),
            "[1]",
        ],
    )
    def test_malformed_lines(self, bad):
        events = parse_row_events([bad, binlog_line("t", "insert", 5, None, {"id": 1})])
        assert len(events) == 1
        with pytest.raises(IngestError):
            parse_row_events([bad], mode="strict")

    def test_read_binlog_file(self, tmp_path):
        path = tmp_path / "binlog.jsonl"
        path.write_text(binlog_line("t", "insert", 5, None, {"id": 1}) + "\n")
        assert len(read_binlog_file(path)) == 1

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            parse_row_events([], mode="other")
        with pytest.raises(ValueError):
            ingest_binlog([], merge_bundle([]), mode="other")


class TestStateAsOf:
    def test_strictly_before_semantics(self, orders_bundle):
        tables = ingest_binlog(order_chain(), orders_bundle)

        assert state_as_of(tables, "orders", 5) == []
        # an event at exactly t is invisible at t
        assert state_as_of(tables, "orders", 10) == []
        assert state_as_of(tables, "orders", 11)[0]["status"] == "unpaid"
        assert state_as_of(tables, "orders", 20)[0]["status"] == "unpaid"
        assert state_as_of(tables, "orders", 25)[0]["status"] == "paid"
        assert state_as_of(tables, "orders", 31)[0]["status"] == "cancelled"

    def test_delete_leaves_tombstone(self, orders_bundle):
        events = order_chain() + [
            RowEvent("orders", "delete", 40, {"id": "o1", "status": "cancelled", "price": 9.5}, None, ordinal=3)
        ]
        tables = ingest_binlog(events, orders_bundle)
        assert state_as_of(tables, "orders", 40)[0]["status"] == "cancelled"
        assert state_as_of(tables, "orders", 41) == []

    def test_matches_independent_replay(self, orders_bundle):
        events = order_chain()
        tables = ingest_binlog(events, orders_bundle)
        for t in (0, 10, 15, 20, 25, 30, 35):
            expected = sorted(
                replay_oracle_rows(events, t).values(), key=lambda r: r["id"]
            )
            got = sorted(state_as_of(tables, "orders", t), key=lambda r: r["id"])
            assert got == expected


class TestChains:
    def test_chain_layout(self, orders_bundle):
        tables = ingest_binlog(order_chain(), orders_bundle)
        chain = tables["orders"].chains[("o1",)]
        assert [(ts, row["status"]) for ts, _, row in chain] == [
            (10, "unpaid"),
            (20, "paid"),
            (30, "cancelled"),
        ]

    def test_version_before(self, orders_bundle):
        tables = ingest_binlog(order_chain(), orders_bundle)
        chains = tables["orders"].chains
        assert version_before(chains[("o1",)], 10) is None
        assert version_before(chains[("o1",)], 21)["status"] == "paid"
        assert ("missing",) not in chains


class TestTimeOrder:
    def test_stream_layout(self, orders_bundle):
        tables = ingest_binlog(order_chain()[::-1], orders_bundle, mode="strict")
        assert [(ts, ordinal, key, row["status"])
                for ts, ordinal, key, row in tables["orders"].versions] == [
            (10, 0, ("o1",), "unpaid"),
            (20, 1, ("o1",), "paid"),
            (30, 2, ("o1",), "cancelled"),
        ]

    def test_update_before_its_insert_is_refused_whatever_the_line_order(
        self, orders_bundle
    ):
        unpaid = {"id": "o1", "status": "unpaid"}
        insert = row_event("orders", "insert", 30, None, unpaid)
        update = row_event("orders", "update", 20, unpaid, dict(unpaid, status="paid"))
        for lines in ([insert, update], [update, insert]):
            with pytest.raises(ReplayError, match=r"update on absent key .* at ts 20$"):
                ingest_binlog(seq(lines), orders_bundle, mode="strict")

    def test_events_of_one_key_at_one_ts_apply_in_file_order(self, orders_bundle):
        unpaid = {"id": "o1", "status": "unpaid"}
        paid = dict(unpaid, status="paid")
        cancelled = dict(unpaid, status="cancelled")
        insert = row_event("orders", "insert", 10, None, unpaid)
        pay = row_event("orders", "update", 20, unpaid, paid)
        cancel = row_event("orders", "update", 20, paid, cancelled)
        for lines, last in (([insert, pay, cancel], "cancelled"), ([insert, cancel, pay], "paid")):
            events = seq(lines)
            for given in (events, events[::-1]):
                tables = ingest_binlog(given, orders_bundle, mode="strict")
                assert [row["status"] for row in state_as_of(tables, "orders", 21)] == [last]


class TestRepairs:
    def test_strict_rejects_update_on_absent(self, orders_bundle):
        events = seq([row_event("orders", "update", 5, {"id": "x"}, {"id": "x", "status": "paid"})])
        with pytest.raises(ReplayError):
            ingest_binlog(events, orders_bundle, mode="strict")
        tables = ingest_binlog(events, orders_bundle)  # lenient repairs to insert
        assert state_as_of(tables, "orders", 6)[0]["status"] == "paid"

    def test_strict_rejects_delete_on_absent(self, orders_bundle):
        events = seq([row_event("orders", "delete", 5, {"id": "x"}, None)])
        with pytest.raises(ReplayError):
            ingest_binlog(events, orders_bundle, mode="strict")
        tables = ingest_binlog(events, orders_bundle)
        assert state_as_of(tables, "orders", 6) == []

    def test_strict_rejects_insert_on_live(self, orders_bundle):
        events = seq(
            [
                row_event("orders", "insert", 5, None, {"id": "x", "status": "unpaid"}),
                row_event("orders", "insert", 6, None, {"id": "x", "status": "paid"}),
            ]
        )
        with pytest.raises(ReplayError):
            ingest_binlog(events, orders_bundle, mode="strict")
        tables = ingest_binlog(events, orders_bundle)  # lenient: overwrite
        assert state_as_of(tables, "orders", 7)[0]["status"] == "paid"

    def test_strict_rejects_unknown_table(self, orders_bundle):
        events = seq([row_event("mystery", "insert", 5, None, {"id": "x"})])
        with pytest.raises(ReplayError):
            ingest_binlog(events, orders_bundle, mode="strict")
        tables = ingest_binlog(events, orders_bundle)
        assert "mystery" not in tables

    def test_missing_key_column(self, orders_bundle):
        events = seq([row_event("orders", "insert", 5, None, {"status": "unpaid"})])
        with pytest.raises(ReplayError):
            ingest_binlog(events, orders_bundle, mode="strict")
        tables = ingest_binlog(events, orders_bundle)
        assert state_as_of(tables, "orders", 6) == []


class TestUniverse:
    """A column's universe in relationship inference: JoinStores.column_keys,
    the non-null value keys of its version stream."""

    def test_includes_every_version_and_skips_nulls(self, orders_bundle):
        events = order_chain() + seq(
            [row_event("orders", "insert", 50, None, {"id": "o2", "status": None})]
        )
        events[-1].ordinal = 3
        tables = ingest_binlog(events, orders_bundle)
        stores = JoinStores(orders_bundle, ingest_logs([]), tables)
        got = stores.column_keys("orders", "status")
        assert got == universe_oracle(events, "orders", "status")
        assert got == {event[2] for event in stores.column_events("orders", "status")} - {None}
        assert got == {("s", "unpaid"), ("s", "paid"), ("s", "cancelled")}


def random_consistent_stream(rng, n_keys=6, n_events=40):
    """Insert/update/delete stream that is valid by construction."""
    events = []
    live = {}
    ts = 0
    for ordinal in range(n_events):
        ts += rng.randint(0, 3)  # repeated timestamps exercise ordinal ordering
        key = f"k{rng.randrange(n_keys)}"
        row = {"id": key, "status": rng.choice(["a", "b", "c"]), "n": rng.randrange(5)}
        if key not in live:
            events.append(RowEvent("t", "insert", ts, None, row, ordinal=ordinal))
            live[key] = row
        elif rng.random() < 0.25:
            events.append(RowEvent("t", "delete", ts, live.pop(key), None, ordinal=ordinal))
        else:
            events.append(RowEvent("t", "update", ts, live[key], row, ordinal=ordinal))
            live[key] = row
    return events


class TestRandomStreams:
    def test_state_matches_oracle_on_random_streams(self):
        bundle = merge_bundle(
            parse_create_table(
                "CREATE TABLE t (id VARCHAR(8) PRIMARY KEY, status TEXT, n BIGINT);"
            )
        )
        rng = random.Random(1234)
        shuffler = random.Random(99)
        for _ in range(30):
            events = random_consistent_stream(rng)
            tables = ingest_binlog(events, bundle, mode="strict")
            # lines out of time order, each keeping its ordinal, replay to
            # the same stream
            shuffled = events[:]
            shuffler.shuffle(shuffled)
            assert ingest_binlog(shuffled, bundle, mode="strict") == tables
            horizon = max(e.ts for e in events) + 2
            for t in range(0, horizon, 3):
                expected = replay_oracle_rows(events, t)
                got = {(r["id"],): r for r in state_as_of(tables, "t", t)}
                assert got == expected


@pytest.mark.parametrize("key", [["o1"], {"v": "o1"}], ids=["list", "object"])
def test_a_list_or_object_key_is_a_replay_error(orders_bundle, key):
    events = seq([
        row_event("orders", "insert", 5, after={"id": key}),
        row_event("orders", "update", 6, before={"id": "o2"}, after={"id": key}),
        row_event("orders", "insert", 7, after={"id": "o2"}),
    ])
    tables = ingest_binlog(events, orders_bundle)
    assert list(tables["orders"].chains) == [("o2",)]
    with pytest.raises(ReplayError, match="at ts 5 has a list or object in its key"):
        ingest_binlog(events, orders_bundle, mode="strict")
