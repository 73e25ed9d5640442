"""Acceptance suite: end-to-end detection bars and cross-module properties.

Each test prints one PASS/FAIL line (bypassing capture) so a plain pytest run
shows the scorecard. Runtime-limited scenarios also enforce their budgets.
"""

import itertools
import json
import math
import random
import time
from types import SimpleNamespace

import numpy as np
import pytest

from apivet.benchgen import (
    binlog_lines,
    corpus_lines,
    generate_normal,
    inject_cross_user,
    inject_double_refund,
    inject_field_tamper,
    scenario_bundle,
)
from apivet.binlog import ingest_binlog, parse_row_events
from apivet.config import PipelineConfig
from apivet.detector import (
    check_corpus,
    evaluate_metrics,
    metrics_to_dict,
)
from apivet.dsl import Invariant, Not, Quant, evaluate, parse_invariant, print_invariant
from apivet.hmm import train_hmm
from apivet.joins import JoinStores, iter_joined_groups, joined_schema_for
from apivet.logstore import LabelRecord, ingest_logs, parse_labels
from apivet.pipeline import run_generation, run_inference
from apivet.relations import API_API, API_DB, API_ENV, Relationship
from apivet.schema import merge_bundle
from apivet.seqmodel import sequence_probability, train_markov
from apivet.sources import flatten_api_signature, load_env_descriptor, parse_create_table

from conftest import api_line, env_line, row_event, state_as_of
from generators import random_expr, random_group, random_invariant
from oracles import (
    api_join_oracle,
    db_join_oracle,
    metrics_oracle,
    replay_oracle_rows,
)


def _check(capsys, name, ok, detail=""):
    line = f"acceptance {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def load_bench(bench, bundle):
    log_lines, label_lines = corpus_lines(bench)
    corpus = ingest_logs(log_lines, mode="strict")
    labels = parse_labels(label_lines, mode="strict")
    events = parse_row_events(binlog_lines(bench), mode="strict")
    tables = ingest_binlog(events, bundle, mode="strict")
    return corpus, tables, labels


@pytest.fixture(scope="module")
def trained():
    """Stub-proposer training run on 1000 normal sessions, timed."""
    started = time.perf_counter()
    bundle = scenario_bundle()
    config = PipelineConfig()
    corpus, tables, _ = load_bench(generate_normal(1000, seed=101), bundle)
    inference = run_inference(bundle, corpus, tables, config)
    generation = run_generation(
        bundle, corpus, tables, inference.relationships, config
    )
    return SimpleNamespace(
        bundle=bundle,
        config=config,
        corpus=corpus,
        tables=tables,
        relationships=inference.relationships,
        invariants=generation.invariants,
        train_s=time.perf_counter() - started,
    )


def detect_and_score(trained, bench, window=20):
    corpus, tables, labels = load_bench(bench, trained.bundle)
    result = check_corpus(
        trained.bundle, corpus, tables, trained.relationships, trained.invariants
    )
    flagged = {v.log_id for v in result.violations}
    return result, flagged, labels, evaluate_metrics(flagged, labels, window)


@pytest.fixture(scope="module")
def mixed_eval(trained):
    bench = generate_normal(500, seed=505, first_index=3000)
    bench = inject_double_refund(bench, 20, seed=1)
    bench = inject_cross_user(bench, 20, seed=2)
    bench = inject_field_tamper(bench, per_kind=5, seed=3)
    _, flagged, labels, metrics = detect_and_score(trained, bench)
    return flagged, labels, metrics


def test_01_end_to_end_double_refund(trained, capsys):
    started = time.perf_counter()
    bench = inject_double_refund(
        generate_normal(500, seed=202, first_index=1000), 20, seed=303
    )
    _, _, _, m = detect_and_score(trained, bench)
    elapsed = trained.train_s + (time.perf_counter() - started)
    ok = (
        m.fp == 0
        and m.precision == 1.0
        and m.traces == 20
        and m.tp == 20
        and m.recall == 1.0
        and elapsed < 60.0
    )
    _check(capsys, "01 end_to_end_double_refund", ok,
           f"fp={m.fp} tp={m.tp}/20 precision={m.precision} "
           f"recall={m.recall} elapsed={elapsed:.1f}s")


def test_02_field_tamper_recall(trained, capsys):
    started = time.perf_counter()
    bench = inject_field_tamper(
        generate_normal(500, seed=404, first_index=2000), per_kind=20, seed=17
    )
    _, _, _, m = detect_and_score(trained, bench)
    elapsed = trained.train_s + (time.perf_counter() - started)
    ok = m.traces == 80 and m.recall == 1.0 and elapsed < 60.0
    _check(capsys, "02 field_tamper_recall", ok,
           f"tp={m.tp}/{m.traces} recall={m.recall} elapsed={elapsed:.1f}s")


def test_03_mixed_attack_families(mixed_eval, capsys):
    _, _, m = mixed_eval
    ok = m.traces == 60 and m.recall is not None and m.recall >= 0.9 \
        and m.precision == 1.0
    _check(capsys, "03 mixed_attack_families", ok,
           f"tp={m.tp}/{m.traces} recall={m.recall} precision={m.precision}")


def test_04_refinement_soundness(capsys):
    bundle = scenario_bundle()
    violations = 0
    runs = 50
    for i in range(runs):
        config = PipelineConfig()
        bench = generate_normal(30, seed=7000 + i * 13)
        corpus, tables, _ = load_bench(bench, bundle)
        inference = run_inference(bundle, corpus, tables, config)
        generation = run_generation(
            bundle, corpus, tables, inference.relationships, config
        )
        result = check_corpus(
            bundle, corpus, tables, inference.relationships, generation.invariants
        )
        violations += len(result.violations)
    _check(capsys, "04 refinement_soundness", violations == 0,
           f"{violations} training violations across {runs} runs")


def _random_stream(rng, n_events):
    events, live, ts = [], {}, 0
    statuses = ("new", "open", "done")
    for i in range(n_events):
        ts += rng.randrange(0, 4)
        key = f"k{rng.randrange(12)}"
        if key not in live:
            row = {"id": key, "status": rng.choice(statuses), "n": rng.randrange(5)}
            events.append(row_event("things", "insert", ts, after=row, ordinal=i))
            live[key] = row
        elif rng.random() < 0.25:
            events.append(row_event("things", "delete", ts, before=live.pop(key),
                                    ordinal=i))
        else:
            new = dict(live[key], status=rng.choice(statuses), n=rng.randrange(5))
            events.append(row_event("things", "update", ts, before=live[key],
                                    after=new, ordinal=i))
            live[key] = new
    return events


def test_05_temporal_replay_oracle(capsys):
    bundle = merge_bundle(parse_create_table(
        "CREATE TABLE things (id VARCHAR(64) PRIMARY KEY, status VARCHAR(8), n INT);"
    ))
    rng = random.Random(4242)
    pairs = mismatches = 0
    for _ in range(25):
        events = _random_stream(rng, rng.randrange(1, 501))
        tables = ingest_binlog(events, bundle, mode="strict")
        max_ts = max(ev.ts for ev in events)
        probes = [0, rng.randrange(0, max_ts + 1),
                  rng.choice(events).ts, max_ts + 1]
        for t in probes:
            got = sorted(state_as_of(tables, "things", t), key=lambda r: r["id"])
            want = sorted(replay_oracle_rows(events, t).values(),
                          key=lambda r: r["id"])
            pairs += 1
            if got != want:
                mismatches += 1
    ok = pairs == 100 and mismatches == 0
    _check(capsys, "05 temporal_replay_oracle", ok,
           f"{pairs - mismatches}/{pairs} stream/time pairs agree")


def _join_bundle():
    login = flatten_api_signature("login", {"loginId": "string"}, {"userId": "string"})
    pay = flatten_api_signature("payOrder", {"orderId": "string"}, {"status": "string"})
    tables = parse_create_table(
        "CREATE TABLE orders (id VARCHAR(64) PRIMARY KEY, userId VARCHAR(64), "
        "status VARCHAR(16));"
    )
    env = load_env_descriptor({"sessionId": "string", "userId": "string"})
    return merge_bundle([login, pay] + tables + [env])


def _row_key(row):
    return json.dumps(row, sort_keys=True)


def test_06_join_oracle(capsys):
    bundle = _join_bundle()
    rng = random.Random(616)
    rels = [
        Relationship(API_DB, "payOrder", "arguments.orderId", "orders", "id"),
        Relationship(API_API, "payOrder", None, "login", None, delta_ms=40),
        Relationship(API_ENV, "payOrder", "arguments.loginId", "Env", "userId"),
    ]
    joins = mismatches = empty_bindings = groups_seen = focals_expected = 0
    for _ in range(3):
        events, live, ts = [], {}, 1
        for i in range(rng.randrange(20, 50)):
            ts += rng.randrange(0, 3)
            oid = f"o{rng.randrange(9)}"
            if oid not in live:
                row = {"id": oid, "userId": f"u{rng.randrange(4)}", "status": "unpaid"}
                events.append(row_event("orders", "insert", ts, after=row, ordinal=i))
                live[oid] = row
            elif rng.random() < 0.3:
                events.append(row_event("orders", "delete", ts, before=live.pop(oid),
                                        ordinal=i))
            else:
                new = dict(live[oid], userId=f"u{rng.randrange(4)}")
                events.append(row_event("orders", "update", ts, before=live[oid],
                                        after=new, ordinal=i))
                live[oid] = new
        sessions = [f"s{j}" for j in range(6)]
        lines = []
        for sid in sessions[:4]:  # two sessions stay without env records
            lines.append(env_line(sid, {"sessionId": sid, "userId": f"u{sid[-1]}"}))
        for _ in range(rng.randrange(10, 30)):
            lines.append(api_line("login", rng.randrange(1, ts + 40),
                                  rng.choice(sessions), {"loginId": "u1"},
                                  {"userId": "u1"}))
        n_focal = rng.randrange(10, 50)
        focals_expected += n_focal
        for _ in range(n_focal):
            lines.append(api_line(
                "payOrder", rng.randrange(1, ts + 40), rng.choice(sessions),
                {"orderId": rng.choice([f"o{rng.randrange(9)}", "ghost"])},
                {"status": "paid"},
            ))
        corpus = ingest_logs(lines, mode="strict")
        tables = ingest_binlog(events, bundle, mode="strict")
        stores = JoinStores(bundle, corpus, tables)
        schema = joined_schema_for(bundle, "payOrder", rels)
        login_rows = [row for _, row in stores.instances("login").rows]
        env_rows = {
            rec.sessionId: rec.fields for rec in corpus.env_records
        }
        for group in iter_joined_groups(stores, schema):
            groups_seen += 1
            t = group.focal["time"]
            sid = group.focal["sessionId"]
            got_db = sorted(_row_key(r) for r in group.bindings["orders"])
            want_db = sorted(_row_key(r) for r in db_join_oracle(
                events, "id", group.focal["arguments.orderId"], t))
            got_api = sorted(_row_key(r) for r in group.bindings["login"])
            want_api = sorted(_row_key(r) for r in api_join_oracle(
                login_rows, sid, t, 40))
            got_env = list(group.bindings["Env"])
            want_env = env_rows.get(sid)
            env_agrees = (
                (not got_env and want_env is None)
                or (len(got_env) == 1 and want_env is not None
                    and got_env[0]["userId"] == want_env["userId"])
            )
            joins += 3
            mismatches += (got_db != want_db) + (got_api != want_api)
            mismatches += 0 if env_agrees else 1
            empty_bindings += sum(
                1 for rows in group.bindings.values() if len(rows) == 0
            )
    ok = (
        joins >= 100
        and mismatches == 0
        and groups_seen == focals_expected  # empty bindings never drop a group
        and empty_bindings > 0
    )
    _check(capsys, "06 join_oracle", ok,
           f"{joins - mismatches}/{joins} joins agree, "
           f"{empty_bindings} empty bindings kept")


def test_07_sequence_model_numerics(capsys):
    rng = random.Random(71)
    worst_row = 0.0
    for alpha in (0.0, 0.3, 1.0, 2.7):
        for _ in range(5):
            seqs = [[rng.choice("abcde") for _ in range(rng.randrange(1, 7))]
                    for _ in range(rng.randrange(1, 10))]
            model = train_markov(seqs, alpha=alpha)
            worst_row = max(worst_row, float(np.abs(
                np.sum(model.transition, axis=1) - 1.0).max()))
    rows_ok = worst_row <= 1e-9

    seqs = [["a", "b", "c", "a"], ["a", "b"], ["c", "b", "a"]] * 2
    hmm = train_hmm(seqs, n_states=2, seed=7)
    worst_sum = 0.0
    for length in range(1, 5):
        total = sum(
            sequence_probability(hmm, seq)
            for seq in itertools.product("abc", repeat=length)
        )
        worst_sum = max(worst_sum, abs(total - 1.0))
    enumeration_ok = worst_sum <= 1e-6

    monotone_ok = True
    for seed in (0, 1, 2):
        model = train_hmm(seqs, n_states=3, max_iter=50, tol=0.0, seed=seed)
        history = model.log_likelihoods
        monotone_ok &= len(history) == 50 and all(
            later >= earlier - 1e-9
            for earlier, later in zip(history, history[1:])
        )
    ok = rows_ok and enumeration_ok and monotone_ok
    _check(capsys, "07 sequence_model_numerics", ok,
           f"row_err={worst_row:.1e} enum_err={worst_sum:.1e} "
           f"monotone={monotone_ok}")


def test_08_dsl_roundtrip_and_de_morgan(capsys):
    rng = random.Random(88)
    roundtrip_failures = 0
    for i in range(1000):
        inv = random_invariant(rng, ident=f"inv_{i}")
        if parse_invariant(print_invariant(inv)) != inv:
            roundtrip_failures += 1
    rng = random.Random(89)
    law_failures = 0
    for _ in range(1000):
        body = random_expr(rng, depth=2, scope=("rows_a",))
        group = random_group(rng)
        not_exists = Invariant(
            id="x", focal="call", category="database",
            body=Not(Quant(exists=True, name="rows_a", body=body)),
        )
        forall_not = Invariant(
            id="x", focal="call", category="database",
            body=Quant(exists=False, name="rows_a", body=Not(body)),
        )
        if evaluate(not_exists, group).passed != evaluate(forall_not, group).passed:
            law_failures += 1
    ok = roundtrip_failures == 0 and law_failures == 0
    _check(capsys, "08 dsl_roundtrip_and_de_morgan", ok,
           f"roundtrip failures={roundtrip_failures}, "
           f"law failures={law_failures}, 1000 each")


def test_09_metrics_fidelity(mixed_eval, capsys):
    labels = [LabelRecord(i, "normal") for i in range(100)]
    for k in range(5):
        labels += [LabelRecord(1000 + 10 * k + j, "attack", f"t{k}")
                   for j in range(2)]
    fixture = evaluate_metrics({1000, 1010, 1020, 7}, labels, window_size=20)
    fixture_ok = (
        (fixture.tp, fixture.fp) == (3, 1)
        and fixture.precision == 0.75
        and metrics_to_dict(fixture) == metrics_oracle({1000, 1010, 1020, 7},
                                                       labels, 20)
    )
    flagged, corpus_labels, metrics = mixed_eval
    corpus_ok = metrics_to_dict(metrics) == metrics_oracle(flagged, corpus_labels, 20)
    ok = fixture_ok and corpus_ok
    _check(capsys, "09 metrics_fidelity", ok,
           f"fixture={fixture_ok} corpus={corpus_ok}")


def test_10_throughput(trained, capsys):
    started = time.perf_counter()
    bench = generate_normal(3000, seed=777)
    corpus, tables, _ = load_bench(bench, trained.bundle)
    invariants = sorted(trained.invariants, key=lambda i: i.id)[:20]
    result = check_corpus(trained.bundle, corpus, tables, trained.relationships, invariants)
    rate = result.logs_processed / result.elapsed_s
    elapsed = time.perf_counter() - started
    ok = len(invariants) <= 20 and rate >= 5e4 and elapsed < 120.0
    _check(capsys, "10 throughput", ok,
           f"{rate:,.0f} logs/s over {result.logs_processed} logs, "
           f"elapsed={elapsed:.1f}s")
