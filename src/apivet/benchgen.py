"""Benchmark generator: a seeded ticket-shop workload with known attacks.

Sessions follow one flow: login, create an order, pay it, query it, and
half the time refund it. Every table change lands in the row-change log,
the user row strictly before its login. Attack injectors append tampered
or replayed calls with per-trace labels; generation is byte-identical for
a given seed.

Injection is linear in the bench: each injector indexes every session's
first normal call per API in one pass, and the bench it returns shares its
input's events instead of copying them.

Each JSON line is built from one %-template around `fileio.json_string` and
`fileio.json_text`, byte-identical to one json.dumps per record, and the
log and label lines share one sort of the events.
"""

from __future__ import annotations

import random
from itertools import chain, islice
from typing import Iterator

from .errors import ConfigError
from .fileio import json_string, json_text, write_chunks
from .schema import SchemaBundle, merge_bundle
from .sources import flatten_api_signature, load_env_descriptor, parse_create_table
from .values import Record

DEFAULT_BASE_TIME = 1_700_000_000_000

MIN_STEP_MS = 10
MAX_STEP_MS = 1000
# sessions start this far apart, before up to 200 ms of jitter each
SESSION_GAP_MS = 400

# lines per block handed to the file writer: one join per block, and few
# enough write calls that writing costs no more than joining a whole file
WRITE_BLOCK_LINES = 2048

_DDL = """
CREATE TABLE users (
  id VARCHAR(32) PRIMARY KEY,
  name VARCHAR(64)
);

CREATE TABLE orders (
  id VARCHAR(32) PRIMARY KEY,
  userId VARCHAR(32),
  status ENUM('unpaid', 'paid', 'cancelled'),
  price DECIMAL(10, 2)
);
"""

_SIGNATURES = {
    "login": ({"loginId": "string"}, {"userId": "string", "userName": "string"}),
    "createOrder": (
        {"loginId": "string", "price": "float"},
        {"orderId": "string", "status": "string"},
    ),
    "payOrder": ({"orderId": "string", "loginId": "string"}, {"status": "string"}),
    "queryOrder": ({"loginId": "string"}, {"orderId": "string", "status": "string"}),
    "refundOrder": (
        {"orderId": "string", "loginId": "string"},
        {"status": "string", "refundAmount": "float"},
    ),
}

_ENV_DESCRIPTOR = {
    "sessionId": "string",
    "userId": "string",
    "userName": "string",
    "userRoles": "document",
}

TAMPER_KINDS = (
    "negative_price",
    "malformed_id",
    "enum_injection",
    "dangling_reference",
)


def scenario_bundle() -> SchemaBundle:
    entities = list(parse_create_table(_DDL))
    for name, (args, resp) in _SIGNATURES.items():
        entities.append(flatten_api_signature(name, args, resp))
    entities.append(load_env_descriptor(_ENV_DESCRIPTOR))
    return merge_bundle(entities)


class SessionInfo(Record):
    __slots__ = ("session_id", "user_id", "order_id", "price", "refunded")

    def __init__(
        self, session_id: str, user_id: str, order_id: str, price: float, refunded: bool
    ):
        self.session_id = session_id
        self.user_id = user_id
        self.order_id = order_id
        self.price = price
        self.refunded = refunded


class Bench(Record):
    """Events of a generated workload, in generation order.

    A bench shares its event dicts and sessions with every bench injected
    from it: injectors append new events and never change one in place, so
    callers should treat events as read-only too.
    """

    __slots__ = ("api_events", "env_events", "row_events", "sessions", "next_seq")

    def __init__(
        self,
        api_events: list[dict] | None = None,
        env_events: list[dict] | None = None,
        row_events: list[dict] | None = None,
        sessions: list[SessionInfo] | None = None,
        next_seq: int = 0,
    ):
        self.api_events = [] if api_events is None else api_events
        self.env_events = [] if env_events is None else env_events
        self.row_events = [] if row_events is None else row_events
        self.sessions = [] if sessions is None else sessions
        self.next_seq = next_seq

    def clone(self) -> "Bench":
        """A bench with its own lists holding the same events."""
        return Bench(
            api_events=list(self.api_events),
            env_events=list(self.env_events),
            row_events=list(self.row_events),
            sessions=list(self.sessions),
            next_seq=self.next_seq,
        )

    def max_time(self) -> int:
        times = [e["time"] for e in self.api_events]
        times += [e["time"] for e in self.env_events]
        times += [e["ts"] for e in self.row_events]
        return max(times) if times else 0


def _api(bench, api, args, resp, t, sid, label="normal", trace=None) -> dict:
    event = {
        "seq": bench.next_seq,
        "api": api,
        "arguments": args,
        "response": resp,
        "time": t,
        "sessionId": sid,
        "label": label,
        "trace": trace,
    }
    bench.next_seq += 1
    bench.api_events.append(event)
    return event


def _env(bench, t, sid, fields) -> None:
    bench.env_events.append(
        {"seq": bench.next_seq, "time": t, "sessionId": sid, "fields": fields}
    )
    bench.next_seq += 1


def _row(bench, table, op, ts, before, after) -> None:
    bench.row_events.append(
        {
            "seq": bench.next_seq,
            "table": table,
            "op": op,
            "ts": ts,
            "before": before,
            "after": after,
        }
    )
    bench.next_seq += 1


def generate_normal(
    n_sessions: int,
    seed: int,
    base_time: int = DEFAULT_BASE_TIME,
    first_index: int = 0,
) -> Bench:
    """Seeded normal workload; sessions overlap on the shared timeline."""
    if n_sessions < 0:
        raise ConfigError(f"session count must not be negative, got {n_sessions}")
    if base_time < MAX_STEP_MS:
        # a user row lands up to MAX_STEP_MS before its session starts, and
        # ingest drops a negative time
        raise ConfigError(f"base time must be at least {MAX_STEP_MS} ms, got {base_time}")
    rng = random.Random(seed)
    bench = Bench()
    for k in range(first_index, first_index + n_sessions):
        info = _one_session(bench, rng, k, base_time, first_index)
        bench.sessions.append(info)
    return bench


def _one_session(bench, rng, k, base_time, first_index) -> SessionInfo:
    step = lambda: rng.randint(MIN_STEP_MS, MAX_STEP_MS)
    sid = f"s{k:05d}"
    uid = f"u{k:05d}"
    uname = f"user {k}"
    oid = f"o{k:05d}"
    price = round(rng.uniform(5.0, 500.0), 2)
    start = base_time + (k - first_index) * SESSION_GAP_MS + rng.randint(0, 200)

    _row(bench, "users", "insert", start - step(), None, {"id": uid, "name": uname})
    _env(
        bench,
        start - 1,
        sid,
        {"sessionId": sid, "userId": uid, "userName": uname, "userRoles": ["customer"]},
    )

    t = start
    _api(bench, "login", {"loginId": uid}, {"userId": uid, "userName": uname}, t, sid)

    t += step()
    _api(
        bench,
        "createOrder",
        {"loginId": uid, "price": price},
        {"orderId": oid, "status": "unpaid"},
        t,
        sid,
    )
    row = {"id": oid, "userId": uid, "status": "unpaid", "price": price}
    _row(bench, "orders", "insert", t, None, dict(row))

    t += step()
    _api(
        bench,
        "payOrder",
        {"orderId": oid, "loginId": uid},
        {"status": "paid"},
        t,
        sid,
    )
    paid = dict(row, status="paid")
    _row(bench, "orders", "update", t, dict(row), dict(paid))

    t += step()
    _api(
        bench,
        "queryOrder",
        {"loginId": uid},
        {"orderId": oid, "status": "paid"},
        t,
        sid,
    )

    refunded = rng.random() < 0.5
    if refunded:
        t += step()
        _api(
            bench,
            "refundOrder",
            {"orderId": oid, "loginId": uid},
            {"status": "cancelled", "refundAmount": price},
            t,
            sid,
        )
        cancelled = dict(paid, status="cancelled")
        _row(bench, "orders", "update", t, dict(paid), dict(cancelled))

    return SessionInfo(
        session_id=sid,
        user_id=uid,
        order_id=oid,
        price=price,
        refunded=refunded,
    )


# --- attack injectors --------------------------------------------------------


def _first_normal_calls(bench) -> dict[tuple[str, str], dict]:
    """Each session's first normal call per API, keyed (sessionId, api).

    Built once per injector: the calls an injector appends are attacks, so
    the first normal call of a (session, API) never changes while it runs.
    """
    index: dict[tuple[str, str], dict] = {}
    for event in bench.api_events:
        if event["label"] == "normal":
            index.setdefault((event["sessionId"], event["api"]), event)
    return index


def _session_event(index, session_id, api_name) -> dict:
    event = index.get((session_id, api_name))
    if event is None:
        raise ConfigError(f"session {session_id!r} has no {api_name!r} call")
    return event


def inject_double_refund(bench: Bench, n_traces: int, seed: int) -> Bench:
    """Replay each chosen session's refund a moment later, with no row change."""
    rng = random.Random(seed)
    out = bench.clone()
    pool = [s for s in out.sessions if s.refunded]
    if n_traces < 0:
        raise ConfigError(f"trace count must not be negative, got {n_traces}")
    if len(pool) < n_traces:
        raise ConfigError(f"need {n_traces} refunded sessions, have {len(pool)}")
    calls = _first_normal_calls(out)
    for i, victim in enumerate(rng.sample(pool, n_traces)):
        original = _session_event(calls, victim.session_id, "refundOrder")
        _api(
            out,
            "refundOrder",
            dict(original["arguments"]),
            dict(original["response"]),
            original["time"] + rng.randint(MIN_STEP_MS, MAX_STEP_MS),
            victim.session_id,
            label="attack",
            trace=f"double_refund_{i}",
        )
    return out


def inject_cross_user(bench: Bench, n_traces: int, seed: int) -> Bench:
    """Refund another user's paid order from a fresh attacker session."""
    rng = random.Random(seed)
    out = bench.clone()
    pool = [s for s in out.sessions if not s.refunded]
    if n_traces < 0:
        raise ConfigError(f"trace count must not be negative, got {n_traces}")
    if len(pool) < n_traces:
        raise ConfigError(f"need {n_traces} unrefunded sessions, have {len(pool)}")
    victims = rng.sample(pool, n_traces)
    t = out.max_time()
    for i, victim in enumerate(victims):
        t += rng.randint(MIN_STEP_MS, MAX_STEP_MS) + 1000
        attacker_sid = f"satk{i:04d}"
        attacker_uid = f"atk{i:04d}"
        _row(
            out,
            "users",
            "insert",
            t - 500,
            None,
            {"id": attacker_uid, "name": f"attacker {i}"},
        )
        _env(
            out,
            t - 1,
            attacker_sid,
            {
                "sessionId": attacker_sid,
                "userId": attacker_uid,
                "userName": f"attacker {i}",
                "userRoles": ["customer"],
            },
        )
        _api(
            out,
            "refundOrder",
            {"orderId": victim.order_id, "loginId": victim.user_id},
            {"status": "cancelled", "refundAmount": victim.price},
            t,
            attacker_sid,
            label="attack",
            trace=f"cross_user_{i}",
        )
        paid = {
            "id": victim.order_id,
            "userId": victim.user_id,
            "status": "paid",
            "price": victim.price,
        }
        _row(out, "orders", "update", t, paid, dict(paid, status="cancelled"))
    return out


def inject_field_tamper(
    bench: Bench, kinds=TAMPER_KINDS, per_kind: int = 1, seed: int = 0
) -> Bench:
    """Duplicate a call 1ms later with one field tampered; no row changes."""
    rng = random.Random(seed)
    out = bench.clone()
    if not kinds:
        raise ConfigError("no tamper kind named")
    for kind in kinds:
        if kind not in TAMPER_KINDS:
            raise ConfigError(f"unknown tamper kind {kind!r}")
    if per_kind < 0:
        raise ConfigError(f"traces per kind must not be negative, got {per_kind}")
    needed = per_kind * len(kinds)
    if len(out.sessions) < needed:
        raise ConfigError(f"need {needed} sessions, have {len(out.sessions)}")
    chosen = rng.sample(out.sessions, needed)
    calls = _first_normal_calls(out)
    slot = 0
    for kind in kinds:
        for j in range(per_kind):
            session = chosen[slot]
            slot += 1
            trace = f"{kind}_{j}"
            if kind == "negative_price":
                original = _session_event(calls, session.session_id, "createOrder")
                args = dict(original["arguments"])
                args["price"] = -abs(args["price"])
                resp = dict(original["response"])
            elif kind == "malformed_id":
                original = _session_event(calls, session.session_id, "payOrder")
                args = dict(original["arguments"])
                args["orderId"] = args["orderId"] + " "
                resp = dict(original["response"])
            elif kind == "enum_injection":
                original = _session_event(calls, session.session_id, "queryOrder")
                args = dict(original["arguments"])
                resp = dict(original["response"])
                resp["status"] = "refunded"
            else:  # dangling_reference
                original = _session_event(calls, session.session_id, "payOrder")
                args = dict(original["arguments"])
                args["orderId"] = f"ghost_{j}"
                resp = dict(original["response"])
            _api(
                out,
                original["api"],
                args,
                resp,
                original["time"] + 1,
                session.session_id,
                label="attack",
                trace=trace,
            )
    return out


# --- serialization -----------------------------------------------------------

# each line as json.dumps lays out the record the line stands for: strings go
# through json's C escaper, the ints generation makes (time, ts, log_id)
# through %d, and documents through the one reused encoder
_API_LINE = (
    '{"kind": "api", "api": %s, "arguments": %s, "response": %s, '
    '"time": %d, "sessionId": %s}'
)
_ENV_LINE = '{"kind": "env", "sessionId": %s, "fields": %s}'
_LABEL_LINE = '{"log_id": %d, "label": %s}'
_TRACE_LABEL_LINE = '{"log_id": %d, "label": %s, "trace": %s}'
_ROW_LINE = '{"table": %s, "op": %s, "ts": %d, "before": %s, "after": %s}'


def corpus_lines(bench: Bench) -> tuple[Iterator[str], Iterator[str]]:
    """Log lines merged by time, and labels aligned to api line order. The
    events are sorted once, here, for both; the lines are made lazily."""
    # (time, seq) is unique, so the api events' relative order is the same
    # whatever env events lie between them
    merged = sorted(
        chain(bench.env_events, bench.api_events), key=lambda e: (e["time"], e["seq"])
    )
    return _log_lines(merged), _label_lines(merged)


def _log_lines(merged: list[dict]) -> Iterator[str]:
    for event in merged:
        if "api" in event:
            yield _API_LINE % (
                json_string(event["api"]),
                json_text(event["arguments"]),
                json_text(event["response"]),
                event["time"],
                json_string(event["sessionId"]),
            )
        else:  # an env event
            yield _ENV_LINE % (json_string(event["sessionId"]), json_text(event["fields"]))


def _label_lines(merged: list[dict]) -> Iterator[str]:
    for log_id, event in enumerate(e for e in merged if "api" in e):
        if event["trace"]:
            yield _TRACE_LABEL_LINE % (
                log_id, json_string(event["label"]), json_string(event["trace"])
            )
        else:
            yield _LABEL_LINE % (log_id, json_string(event["label"]))


def binlog_lines(bench: Bench) -> Iterator[str]:
    """Row events by time, lazily."""
    ordered = sorted(bench.row_events, key=lambda e: (e["ts"], e["seq"]))
    for e in ordered:
        yield _ROW_LINE % (
            json_string(e["table"]),
            json_string(e["op"]),
            e["ts"],
            json_text(e["before"]),
            json_text(e["after"]),
        )


def _file_blocks(lines: Iterator[str]) -> Iterator[str]:
    """The text "\\n".join(lines) + "\\n", in blocks of WRITE_BLOCK_LINES lines
    joined once each: no list of a file's lines, nor its text, is held."""
    block = list(islice(lines, WRITE_BLOCK_LINES))
    yield "\n".join(block) + "\n"  # no lines at all write one "\n"
    while block := list(islice(lines, WRITE_BLOCK_LINES)):
        yield "\n".join(block) + "\n"


def write_bench(bench: Bench, out_dir: str) -> dict:
    import os

    os.makedirs(out_dir, exist_ok=True)
    log_lines, label_lines = corpus_lines(bench)
    paths = {
        "logs": os.path.join(out_dir, "logs.jsonl"),
        "labels": os.path.join(out_dir, "labels.jsonl"),
        "binlog": os.path.join(out_dir, "binlog.jsonl"),
        "bundle": os.path.join(out_dir, "bundle.json"),
    }
    write_chunks(_file_blocks(log_lines), paths["logs"])
    write_chunks(_file_blocks(label_lines), paths["labels"])
    write_chunks(_file_blocks(binlog_lines(bench)), paths["binlog"])
    from .schema import save_bundle

    save_bundle(scenario_bundle(), paths["bundle"])
    return paths
