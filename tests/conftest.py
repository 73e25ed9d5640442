"""Shared builders for log lines, env lines, and binlog lines, and readers
of replayed tables."""

from __future__ import annotations

import json

import pytest

from apivet.binlog import RowEvent
from apivet.logstore import ingest_logs


def api_line(api, time, session_id, arguments=None, response=None):
    return json.dumps(
        {
            "kind": "api",
            "api": api,
            "time": time,
            "sessionId": session_id,
            "arguments": arguments or {},
            "response": response if response is not None else {},
        }
    )


def env_line(session_id, fields, time=None):
    record = {"kind": "env", "sessionId": session_id, "fields": fields}
    if time is not None:
        record["time"] = time
    return json.dumps(record)


def binlog_line(table, op, ts, before=None, after=None):
    return json.dumps(
        {"table": table, "op": op, "ts": ts, "before": before, "after": after}
    )


def row_event(table, op, ts, before=None, after=None, ordinal=0):
    return RowEvent(table=table, op=op, ts=ts, before=before, after=after, ordinal=ordinal)


def corpus_from(lines):
    return ingest_logs(lines)


def version_before(chain, t):
    """Row image of a chain's last version with ts < t; None when there is
    none yet or it is a tombstone."""
    row = None
    for ts, _, image in chain:
        if ts >= t:
            break
        row = image
    return row


def state_as_of(tables, table, t):
    """Rows of one replayed table live strictly before t, in the order their
    keys first appear in its version stream."""
    rows = {}
    for ts, _, key, row in tables[table].versions:
        if ts >= t:
            break
        rows[key] = row
    return [row for row in rows.values() if row is not None]


@pytest.fixture
def shop_bundle():
    from apivet.benchgen import scenario_bundle

    return scenario_bundle()


@pytest.fixture
def tiny_corpus():
    """Three sessions of login -> createOrder -> payOrder style traffic."""
    lines = []
    t = 1_000
    for i, sid in enumerate(["s1", "s2", "s3"]):
        lines.append(env_line(sid, {"sessionId": sid, "userId": f"u{i}"}))
        lines.append(api_line("login", t, sid, {"loginId": f"u{i}"}, {"ok": True}))
        lines.append(
            api_line(
                "createOrder",
                t + 10,
                sid,
                {"userId": f"u{i}", "amount": 5 + i},
                {"orderId": f"o{i}"},
            )
        )
        lines.append(
            api_line("payOrder", t + 20, sid, {"orderId": f"o{i}"}, {"status": "paid"})
        )
        t += 100
    return ingest_logs(lines)
