"""Workload generator: normal sessions, attack injectors, serialization."""

import copy
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apivet
from apivet import benchgen
from apivet.benchgen import (
    MAX_STEP_MS,
    MIN_STEP_MS,
    TAMPER_KINDS,
    Bench,
    SessionInfo,
    binlog_lines,
    corpus_lines,
    generate_normal,
    inject_cross_user,
    inject_double_refund,
    inject_field_tamper,
    scenario_bundle,
    write_bench,
)
from apivet.binlog import ingest_binlog, parse_row_events
from apivet.cli import main
from apivet.errors import ConfigError
from apivet.fileio import json_text
from apivet.logstore import ingest_logs, parse_labels
from apivet.schema import load_bundle

from conftest import state_as_of
from oracles import bench_lines_oracle, session_event_oracle


def listed(streams):
    """The lazy line streams of `corpus_lines`, as lists."""
    return tuple(list(lines) for lines in streams)


class TestNormalWorkload:
    def test_seed_determinism(self):
        a = generate_normal(20, seed=11)
        b = generate_normal(20, seed=11)
        assert listed(corpus_lines(a)) == listed(corpus_lines(b))
        assert list(binlog_lines(a)) == list(binlog_lines(b))
        c = generate_normal(20, seed=12)
        assert listed(corpus_lines(a)) != listed(corpus_lines(c))

    def test_session_shape(self):
        bench = generate_normal(30, seed=3)
        assert len(bench.sessions) == 30
        by_session = {}
        for ev in bench.api_events:
            by_session.setdefault(ev["sessionId"], []).append(ev)
        refunded = [s for s in bench.sessions if s.refunded]
        assert refunded and len(refunded) < 30  # both kinds occur at 30 sessions
        for info in bench.sessions:
            calls = by_session[info.session_id]
            apis = [ev["api"] for ev in calls]
            times = [ev["time"] for ev in calls]
            assert times == sorted(times)
            if info.refunded:
                assert apis == ["login", "createOrder", "payOrder", "queryOrder",
                                "refundOrder"]
            else:
                assert apis == ["login", "createOrder", "payOrder", "queryOrder"]
            assert all(ev["label"] == "normal" and ev["trace"] is None
                       for ev in calls)

    def test_order_row_history_follows_the_session(self):
        bench = generate_normal(12, seed=7)
        by_order = {}
        for ev in bench.row_events:
            if ev["table"] == "orders":
                key = (ev["after"] or ev["before"])["id"]
                by_order.setdefault(key, []).append(ev)
        for info in bench.sessions:
            chain = by_order[info.order_id]
            ops = [ev["op"] for ev in chain]
            statuses = [ev["after"]["status"] for ev in chain]
            if info.refunded:
                assert ops == ["insert", "update", "update"]
                assert statuses == ["unpaid", "paid", "cancelled"]
            else:
                assert ops == ["insert", "update"]
                assert statuses == ["unpaid", "paid"]
            assert all(ev["after"]["price"] == info.price for ev in chain)

    def test_env_record_per_session(self):
        bench = generate_normal(8, seed=2)
        assert len(bench.env_events) == 8
        for info, env in zip(bench.sessions, bench.env_events):
            assert env["sessionId"] == info.session_id
            assert env["fields"]["userId"] == info.user_id
            assert env["fields"]["userRoles"] == ["customer"]

    def test_lines_parse_cleanly(self):
        bench = generate_normal(10, seed=5)
        log_lines, label_lines = listed(corpus_lines(bench))
        corpus = ingest_logs(log_lines, mode="strict")
        assert len(corpus.events) == len(label_lines)
        assert len(corpus.env_records) == 10
        labels = parse_labels(label_lines, mode="strict")
        assert all(l.label == "normal" for l in labels)
        # labels line up with ingest ordinals
        assert [l.log_id for l in labels] == [e.id for e in corpus.events]
        events = parse_row_events(binlog_lines(bench), mode="strict")
        tables = ingest_binlog(events, scenario_bundle(), mode="strict")
        final = state_as_of(tables, "orders", bench.max_time() + 1)
        assert len(final) == 10

    def test_base_time_below_the_longest_step_is_refused(self):
        # a user row lands up to MAX_STEP_MS before its session's first call
        with pytest.raises(ConfigError, match="base time must be at least 1000 ms, got 999"):
            generate_normal(3, seed=1, base_time=MAX_STEP_MS - 1)

    def test_the_lowest_base_time_passes_strict_ingest(self):
        bench = generate_normal(200, seed=1, base_time=MAX_STEP_MS)
        log_lines, _ = corpus_lines(bench)
        corpus = ingest_logs(log_lines, mode="strict")
        assert len(corpus.events) == len(bench.api_events)
        events = parse_row_events(binlog_lines(bench), mode="strict")
        assert len(events) == len(bench.row_events)
        ingest_binlog(events, scenario_bundle(), mode="strict")


class TestInjectors:
    def test_double_refund_adds_calls_without_rows(self):
        bench = generate_normal(40, seed=1)
        attacked = inject_double_refund(bench, 5, seed=9)
        assert len(bench.api_events) + 5 == len(attacked.api_events)
        assert list(binlog_lines(bench)) == list(binlog_lines(attacked))  # no row changes
        extra = attacked.api_events[len(bench.api_events):]
        traces = sorted(ev["trace"] for ev in extra)
        assert traces == [f"double_refund_{i}" for i in range(5)]
        for ev in extra:
            assert ev["api"] == "refundOrder" and ev["label"] == "attack"
            twin = [e for e in bench.api_events
                    if e["sessionId"] == ev["sessionId"] and e["api"] == "refundOrder"]
            assert twin and twin[0]["arguments"] == ev["arguments"]
            assert ev["time"] > twin[0]["time"]

    def test_double_refund_requires_refunded_pool(self):
        bench = generate_normal(4, seed=100)
        refunded = sum(1 for s in bench.sessions if s.refunded)
        with pytest.raises(ConfigError):
            inject_double_refund(bench, refunded + 1, seed=0)

    def test_cross_user_creates_attacker_sessions(self):
        bench = generate_normal(40, seed=1)
        attacked = inject_cross_user(bench, 3, seed=9)
        extra = [ev for ev in attacked.api_events if ev["label"] == "attack"]
        assert len(extra) == 3
        victims = {s.order_id: s for s in bench.sessions if not s.refunded}
        for ev in extra:
            assert ev["api"] == "refundOrder"
            assert ev["sessionId"].startswith("satk")
            victim = victims[ev["arguments"]["orderId"]]
            assert ev["arguments"]["loginId"] == victim.user_id
        # each attack also flips the victim's order row to cancelled
        assert len(attacked.row_events) == len(bench.row_events) + 6  # user + update
        env_sids = {e["sessionId"] for e in attacked.env_events}
        assert {ev["sessionId"] for ev in extra} <= env_sids

    def test_cross_user_requires_unrefunded_pool(self):
        bench = generate_normal(3, seed=6)
        unrefunded = sum(1 for s in bench.sessions if not s.refunded)
        with pytest.raises(ConfigError):
            inject_cross_user(bench, unrefunded + 1, seed=0)

    def test_field_tamper_covers_every_kind(self):
        bench = generate_normal(40, seed=1)
        attacked = inject_field_tamper(bench, per_kind=2, seed=4)
        extra = [ev for ev in attacked.api_events if ev["label"] == "attack"]
        assert len(extra) == 8
        by_trace = {ev["trace"]: ev for ev in extra}
        assert set(by_trace) == {f"{kind}_{j}" for kind in TAMPER_KINDS
                                 for j in range(2)}
        assert by_trace["negative_price_0"]["arguments"]["price"] < 0
        assert by_trace["malformed_id_0"]["arguments"]["orderId"].endswith(" ")
        assert by_trace["enum_injection_0"]["response"]["status"] == "refunded"
        assert by_trace["dangling_reference_1"]["arguments"]["orderId"] == "ghost_1"
        assert list(binlog_lines(bench)) == list(binlog_lines(attacked))
        # tampered twin lands right after the original call
        for ev in extra:
            originals = [e for e in bench.api_events
                         if e["sessionId"] == ev["sessionId"] and e["api"] == ev["api"]]
            assert ev["time"] == originals[0]["time"] + 1

    def test_field_tamper_validates_inputs(self):
        bench = generate_normal(4, seed=1)
        with pytest.raises(ConfigError):
            inject_field_tamper(bench, kinds=("negative_price", "bogus"), seed=0)
        with pytest.raises(ConfigError):
            inject_field_tamper(bench, per_kind=2, seed=0)  # needs 8 sessions
        with pytest.raises(ConfigError, match="^no tamper kind named$"):
            inject_field_tamper(bench, kinds=(), seed=0)

    def test_injectors_do_not_mutate_their_input(self):
        bench = generate_normal(20, seed=8)
        before = listed(corpus_lines(bench))
        lists = ("api_events", "env_events", "row_events", "sessions")
        snapshot = copy.deepcopy([getattr(bench, name) for name in lists])
        next_seq = bench.next_seq
        for inject in (
            lambda b: inject_double_refund(b, 2, seed=1),
            lambda b: inject_cross_user(b, 2, seed=1),
            lambda b: inject_field_tamper(b, per_kind=1, seed=1),
        ):
            out = inject(bench)
            assert [getattr(bench, name) for name in lists] == snapshot
            assert bench.next_seq == next_seq
            # the injected bench holds the input's own objects, then its own
            for name in lists:
                ours, theirs = getattr(bench, name), getattr(out, name)
                assert theirs is not ours and len(theirs) >= len(ours)
                assert all(a is b for a, b in zip(ours, theirs))
        assert listed(corpus_lines(bench)) == before


# the field each tamper kind changes, and the API whose call it copies
TAMPERED = {
    "negative_price": ("createOrder", "arguments", "price"),
    "malformed_id": ("payOrder", "arguments", "orderId"),
    "enum_injection": ("queryOrder", "response", "status"),
    "dangling_reference": ("payOrder", "arguments", "orderId"),
}


def assert_copies_of_the_oracle_pick(bench, attacked):
    """Every call `attacked` appends to `bench` copies the call the linear
    scan picks from `bench`, with only its kind's field tampered."""
    extra = attacked.api_events[len(bench.api_events):]
    assert extra
    for event in extra:
        kind = event["trace"].rsplit("_", 1)[0]
        original = session_event_oracle(bench, event["sessionId"], event["api"])
        assert original is not None and original["label"] == "normal"
        untampered = {"arguments": dict(event["arguments"]),
                      "response": dict(event["response"])}
        if kind == "double_refund":
            assert event["api"] == "refundOrder"
            assert MIN_STEP_MS <= event["time"] - original["time"] <= MAX_STEP_MS
        else:
            api, side, key = TAMPERED[kind]
            assert event["api"] == api
            assert event["time"] == original["time"] + 1
            assert untampered[side][key] != original[side][key]
            untampered[side][key] = original[side][key]
        assert untampered == {"arguments": original["arguments"],
                              "response": original["response"]}


class TestVictimLookup:
    """Injectors find each victim call in one index per call, and pick what
    a scan of every call would."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_injected_calls_copy_what_the_scan_picks(self, seed):
        bench = generate_normal(60, seed=seed)
        refunded = sum(1 for s in bench.sessions if s.refunded)
        assert_copies_of_the_oracle_pick(
            bench, inject_double_refund(bench, refunded // 2, seed=seed + 1))
        for kind in TAMPER_KINDS:
            assert_copies_of_the_oracle_pick(
                bench, inject_field_tamper(bench, (kind,), per_kind=5, seed=seed + 2))

    def test_reinjection_never_looks_up_an_attack_copy(self, monkeypatch):
        looked_up = []
        session_event = benchgen._session_event

        def recording(index, session_id, api_name):
            event = session_event(index, session_id, api_name)
            looked_up.append(event)
            return event

        monkeypatch.setattr(benchgen, "_session_event", recording)
        bench = generate_normal(30, seed=5)
        refunded = sum(1 for s in bench.sessions if s.refunded)
        # every refunded session, and 28 of 30 sessions per tamper pass:
        # the second passes revisit calls the first ones copied
        once = inject_field_tamper(
            inject_double_refund(bench, refunded, seed=1), per_kind=7, seed=2)
        first_lookups = len(looked_up)
        twice = inject_field_tamper(
            inject_double_refund(once, refunded, seed=3), per_kind=7, seed=4)
        copied = {(e["sessionId"], e["api"]) for e in once.api_events
                  if e["label"] == "attack"}
        revisited = [e for e in looked_up[first_lookups:]
                     if (e["sessionId"], e["api"]) in copied]
        assert revisited
        for event in looked_up:
            assert event is session_event_oracle(bench, event["sessionId"], event["api"])
        assert_copies_of_the_oracle_pick(once, twice)

    def test_a_missing_call_is_a_config_error(self):
        victim = SessionInfo("s0", "u0", "o0", 9.5, refunded=True)
        bench = Bench(sessions=[victim])
        # an attack-labelled call is never a victim
        benchgen._api(bench, "refundOrder", {"orderId": "o0", "loginId": "u0"},
                      {"status": "cancelled", "refundAmount": 9.5}, 100, "s0",
                      label="attack", trace="double_refund_0")
        with pytest.raises(ConfigError, match="session 's0' has no 'refundOrder' call"):
            inject_double_refund(bench, 1, seed=0)
        with pytest.raises(ConfigError, match="session 's0' has no 'createOrder' call"):
            inject_field_tamper(bench, ("negative_price",), per_kind=1, seed=0)

    @pytest.mark.parametrize("traces", [1, 12])
    def test_one_index_per_injector_call_whatever_the_trace_count(
        self, monkeypatch, traces
    ):
        builds = []
        first_normal_calls = benchgen._first_normal_calls

        def counting(bench):
            builds.append(len(bench.api_events))
            return first_normal_calls(bench)

        monkeypatch.setattr(benchgen, "_first_normal_calls", counting)
        bench = generate_normal(60, seed=7)
        assert sum(1 for s in bench.sessions if s.refunded) >= 12
        inject_double_refund(bench, traces, seed=1)
        assert len(builds) == 1
        inject_field_tamper(bench, per_kind=traces, seed=2)
        assert len(builds) == 2
        inject_cross_user(bench, traces, seed=3)  # it copies no call
        assert builds == [len(bench.api_events)] * 2


class TestSerialization:
    def test_labels_align_with_merged_stream(self):
        bench = inject_double_refund(generate_normal(20, seed=13), 3, seed=2)
        log_lines, label_lines = corpus_lines(bench)
        corpus = ingest_logs(log_lines, mode="strict")
        labels = parse_labels(label_lines, mode="strict")
        attack = [l for l in labels if l.label == "attack"]
        assert len(attack) == 3
        for record in attack:
            event = corpus.events[record.log_id]
            assert event.api == "refundOrder"
            assert record.trace.startswith("double_refund_")
        # merged stream is time-ordered
        times = [e.time for e in corpus.events]
        assert times == sorted(times)

    def test_write_bench_produces_loadable_files(self, tmp_path):
        bench = inject_field_tamper(generate_normal(10, seed=21), per_kind=1, seed=3)
        paths = write_bench(bench, str(tmp_path / "bench"))
        assert set(paths) == {"logs", "labels", "binlog", "bundle"}
        bundle = load_bundle(paths["bundle"])
        names = {e.name for e in bundle.entities}
        assert {"login", "createOrder", "payOrder", "queryOrder", "refundOrder",
                "users", "orders", "Env"} <= names
        with open(paths["logs"]) as fh:
            corpus = ingest_logs(fh.read().splitlines(), mode="strict")
        assert len(corpus.events) == len(bench.api_events)
        with open(paths["labels"]) as fh:
            labels = parse_labels(fh.read().splitlines(), mode="strict")
        assert sum(1 for l in labels if l.label == "attack") == 4
        with open(paths["binlog"]) as fh:
            events = parse_row_events(fh.read().splitlines(), mode="strict")
        ingest_binlog(events, bundle, mode="strict")

    @pytest.mark.parametrize("block", [3, benchgen.WRITE_BLOCK_LINES])
    @pytest.mark.parametrize("sessions", [0, 7])
    def test_files_hold_the_lines_joined(self, tmp_path, monkeypatch, block, sessions):
        monkeypatch.setattr(benchgen, "WRITE_BLOCK_LINES", block)
        bench = Bench() if sessions == 0 else inject_double_refund(
            generate_normal(sessions, seed=4), 2, seed=5)
        paths = write_bench(bench, str(tmp_path))
        log_lines, label_lines = listed(corpus_lines(bench))
        for name, lines in (("logs", log_lines), ("labels", label_lines),
                            ("binlog", list(binlog_lines(bench)))):
            assert sessions == 0 or len(lines) > 6  # several blocks of 3
            with open(paths[name], encoding="utf-8", newline="") as fh:
                text = fh.read()
            assert text == "\n".join(lines) + "\n"
            assert sessions or text == "\n"  # an empty bench writes one newline

    def test_writing_holds_less_than_the_log_file(self, tmp_path):
        # lines are joined a block at a time: neither a file's line list
        # nor its text is ever held whole
        bench = generate_normal(2000, seed=6)
        tracemalloc.start()
        try:
            paths = write_bench(bench, str(tmp_path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < os.path.getsize(paths["logs"])

    def test_binlog_lines_are_time_sorted(self):
        bench = generate_normal(15, seed=17)
        stamps = [json.loads(line)["ts"] for line in binlog_lines(bench)]
        assert stamps == sorted(stamps)


# --- the writer against one json.dumps per record ----------------------------

# any code point: non-ASCII, control characters and lone surrogates
TEXT = st.text(st.characters(blacklist_categories=()), max_size=6)
DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(TEXT | st.integers() | st.floats() | st.booleans() | st.none(),
                      inner, max_size=3),
    max_leaves=8,
)


@st.composite
def benches(draw):
    """Benches whose events have benchgen's shape, with arbitrary strings
    and documents; few distinct times, so ties across kinds are common."""
    bench = Bench()
    times = st.integers(-3, 3) | st.integers()
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["api", "env", "row"]))
        if kind == "api":
            benchgen._api(bench, draw(TEXT), draw(DOCUMENTS), draw(DOCUMENTS),
                          draw(times), draw(TEXT), label=draw(TEXT),
                          trace=draw(st.none() | TEXT))
        elif kind == "env":
            benchgen._env(bench, draw(times), draw(TEXT), draw(DOCUMENTS))
        else:
            benchgen._row(bench, draw(TEXT), draw(TEXT), draw(times),
                          draw(DOCUMENTS), draw(DOCUMENTS))
    return bench


class TestTemplatedLines:
    @settings(max_examples=200, deadline=None)
    @given(bench=benches())
    def test_each_line_is_json_dumps_of_its_record(self, bench):
        log_lines, label_lines = listed(corpus_lines(bench))
        assert (log_lines, label_lines, list(binlog_lines(bench))) == \
            bench_lines_oracle(bench)

    @settings(max_examples=300, deadline=None)
    @given(value=DOCUMENTS)
    def test_json_text_is_json_dumps(self, value):
        assert json_text(value) == json.dumps(value)

    def test_a_failed_encode_leaves_the_encoder_usable(self):
        # a markers dict kept across calls would still hold the dict's id
        # and call the second encode circular
        document = {"a": [object()]}
        with pytest.raises(TypeError):
            json_text(document)
        document["a"] = [1]
        assert json_text(document) == '{"a": [1]}'

    def test_without_the_c_encoder_json_text_is_json_dumps(self):
        code = ("import json, json.encoder; json.encoder.c_make_encoder = None; "
                "from apivet import fileio; assert fileio.json_text is json.dumps")
        env = dict(os.environ, PYTHONPATH=str(Path(apivet.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_write_bench_makes_no_json_dumps_call_per_line(self, tmp_path, monkeypatch):
        calls = []
        dumps = json.dumps
        monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(a) or dumps(*a, **k))
        bench = inject_field_tamper(generate_normal(50, seed=8), per_kind=2, seed=9)
        write_bench(bench, str(tmp_path))
        assert len(calls) == 1  # the bundle document


# sha256 of the files `apivet benchgen --sessions 40 --double-refund 3
# --cross-user 3 --tamper 2` wrote when each line was one json.dumps call
GOLDEN = {
    11: {
        "logs.jsonl": "733b4604b88add949c5e21b53c9484cf9171a2269e52e6a153248e8aeb6c935f",
        "labels.jsonl": "bed261916da1c8bfbffc163e1f9d1ab9476f23eebbcdf025bb82b3d03df5fd81",
        "binlog.jsonl": "e2fdf29dd5e7b4fc1a6a1d96aa3b928e6b8bf8305b56df75578dc9e25fc47cbc",
        "bundle.json": "3275da7a70d2c2eeb0e375d7ab9e1f575b244a5b172ce8304029348b58993d65",
    },
    12: {
        "logs.jsonl": "ce7d16ee0a355e141e8dc8d0700df2fc0dee594a2cd0b155deed72add62937c0",
        "labels.jsonl": "5f53c34818c3ec34f2407f589b1353ab444594c1f15b79b4668af2408c9f5af9",
        "binlog.jsonl": "9e3d3fbfc8aa3ac753d45db27b4213a9519b3727d73c6c3d8e622f9c75d72adb",
        "bundle.json": "3275da7a70d2c2eeb0e375d7ab9e1f575b244a5b172ce8304029348b58993d65",
    },
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_benchgen_files_keep_their_bytes(tmp_path, seed):
    assert main(["benchgen", "--out", str(tmp_path), "--sessions", "40",
                 "--seed", str(seed), "--double-refund", "3", "--cross-user", "3",
                 "--tamper", "2"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN[seed]}
    assert digests == GOLDEN[seed]


@pytest.mark.parametrize("kinds", [",", "", "bogus", "negative_price,bogus"])
def test_a_tamper_list_that_names_no_known_kind_exits_one(tmp_path, capsys, kinds):
    out = tmp_path / "bench"
    assert main(["benchgen", "--out", str(out), "--sessions", "8",
                 "--tamper", "1", "--tamper-kinds", kinds]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
