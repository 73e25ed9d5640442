"""Detector: compiled invariants, corpus checking, scoring, and reports."""

import json
import random

import pytest

from apivet.binlog import ingest_binlog
from apivet.detector import (
    check_corpus,
    compile_invariant,
    evaluate_metrics,
    flagged_ids,
    metrics_to_dict,
    read_report,
    report_to_dict,
    violation_to_dict,
    write_report,
)
from apivet.dsl import (
    evaluate,
    explain,
    failing_conjuncts,
    parse_invariant,
    print_invariant,
)
from apivet.errors import MetricsError
from apivet.logstore import LabelRecord, ingest_logs
from apivet.relations import API_DB, Relationship
from apivet.schema import (
    flatten_api_signature,
    load_env_descriptor,
    merge_bundle,
    parse_create_table,
)

from conftest import api_line, env_line, row_event
from generators import random_group, random_invariant
from oracles import (
    eval_oracle,
    explain_oracle,
    failing_conjuncts_oracle,
    metrics_oracle,
)


def detector_bundle():
    login = flatten_api_signature("login", {"loginId": "string"}, {"userId": "string"})
    pay = flatten_api_signature(
        "payOrder", {"orderId": "string"}, {"status": "string"}
    )
    tables = parse_create_table(
        "CREATE TABLE orders (id VARCHAR(64) PRIMARY KEY, status VARCHAR(16));"
    )
    env = load_env_descriptor({"sessionId": "string", "userId": "string"})
    return merge_bundle([login, pay] + tables + [env])


ORDER_EXISTS = (
    "INVARIANT order_exists ON payOrder CATEGORY database "
    "WHERE EXISTS(orders: orders.id == payOrder.arguments.orderId)"
)
PAID_STATUS = (
    'INVARIANT paid_status ON payOrder CATEGORY common_sense '
    'WHERE payOrder.response.status == "paid"'
)


def planted_setup():
    """Three payOrder calls: one clean, one bad status, one dangling orderId."""
    events = [
        row_event("orders", "insert", 10, after={"id": "o1", "status": "paid"}),
        row_event("orders", "insert", 10, after={"id": "o2", "status": "paid"}),
    ]
    for i, ev in enumerate(events):
        object.__setattr__(ev, "ordinal", i)
    lines = [
        api_line("payOrder", 100, "s1", {"orderId": "o1"}, {"status": "paid"}),
        api_line("payOrder", 200, "s2", {"orderId": "o2"}, {"status": "oops"}),
        api_line("payOrder", 300, "s3", {"orderId": "o9"}, {"status": "paid"}),
    ]
    bundle = detector_bundle()
    corpus = ingest_logs(lines)
    tables = ingest_binlog(events, bundle, mode="strict")
    rels = [Relationship(API_DB, "payOrder", "arguments.orderId", "orders", "id")]
    invs = [parse_invariant(ORDER_EXISTS), parse_invariant(PAID_STATUS)]
    return bundle, corpus, tables, rels, invs


class TestCompileInvariant:
    def test_matches_reference_evaluator(self):
        rng = random.Random(424242)
        failures = 0
        for _ in range(500):
            inv = random_invariant(rng)
            fn = compile_invariant(inv)
            for _ in range(3):
                group = random_group(rng)
                passed = eval_oracle(inv, group)
                failures += not passed
                assert fn(group) == passed, print_invariant(inv)
                verdict = evaluate(inv, group)
                assert verdict.passed == passed
                assert explain(verdict) == explain_oracle(inv, group)
                assert failing_conjuncts(inv, group) == failing_conjuncts_oracle(
                    inv, group
                )
        assert failures > 300  # enough failures to exercise the tracer

    def test_focal_scope_and_bindings(self):
        inv = parse_invariant(ORDER_EXISTS)
        fn = compile_invariant(inv)

        class Group:
            focal = {"arguments.orderId": "o1", "time": 1, "sessionId": "s"}
            bindings = {"orders": [{"id": "o1", "status": "paid"}]}

        assert fn(Group())

        class Empty:
            focal = {"arguments.orderId": "o9", "time": 1, "sessionId": "s"}
            bindings = {"orders": []}

        assert not fn(Empty())


class TestCheckCorpus:
    def test_planted_violations_are_found_and_sorted(self):
        bundle, corpus, tables, rels, invs = planted_setup()
        result = check_corpus(bundle, corpus, tables, rels, invs)
        assert result.logs_processed == 3
        assert result.groups_built == 3
        assert result.evaluations == 6
        assert [(v.session_id, v.invariant_id) for v in result.violations] == [
            ("s2", "paid_status"),
            ("s3", "order_exists"),
        ]
        by_session = {v.session_id: v for v in result.violations}
        bad_status = by_session["s2"]
        assert bad_status.api == "payOrder"
        assert bad_status.category == "common_sense"
        assert bad_status.time == 200
        assert "payOrder.response.status" in bad_status.explanation
        assert '"oops"' in bad_status.explanation
        dangling = by_session["s3"]
        assert dangling.category == "database"
        assert "0 bound row(s)" in dangling.explanation

    def test_violations_order_is_log_then_invariant(self):
        bundle, corpus, tables, rels, invs = planted_setup()
        # make the s2 call fail both invariants
        corpus2 = ingest_logs([
            api_line("payOrder", 100, "s1", {"orderId": "o1"}, {"status": "paid"}),
            api_line("payOrder", 200, "s2", {"orderId": "o9"}, {"status": "oops"}),
        ])
        result = check_corpus(bundle, corpus2, tables, rels, invs)
        assert [(v.log_id, v.invariant_id) for v in result.violations] == [
            (1, "order_exists"),
            (1, "paid_status"),
        ]

    def test_jobs_do_not_change_the_report(self):
        bundle = detector_bundle()
        events, lines = [], []
        rng = random.Random(5)
        for i in range(40):
            oid = f"o{i}"
            events.append(row_event("orders", "insert", i, after={"id": oid, "status": "paid"}))
            ask = oid if rng.random() < 0.8 else f"ghost{i}"
            status = "paid" if rng.random() < 0.8 else "oops"
            lines.append(api_line("payOrder", 1000 + i, f"s{i}", {"orderId": ask},
                                  {"status": status}))
        for i, ev in enumerate(events):
            object.__setattr__(ev, "ordinal", i)
        corpus = ingest_logs(lines)
        tables = ingest_binlog(events, bundle, mode="strict")
        rels = [Relationship(API_DB, "payOrder", "arguments.orderId", "orders", "id")]
        invs = [parse_invariant(ORDER_EXISTS), parse_invariant(PAID_STATUS)]
        serial = check_corpus(bundle, corpus, tables, rels, invs, jobs=1)
        threaded = check_corpus(bundle, corpus, tables, rels, invs, jobs=3)
        assert report_to_dict(serial, len(invs)) == report_to_dict(threaded, len(invs))
        assert serial.violations  # the comparison is not vacuous


class TestReports:
    def test_report_roundtrip_and_flagged_ids(self, tmp_path):
        bundle, corpus, tables, rels, invs = planted_setup()
        result = check_corpus(bundle, corpus, tables, rels, invs)
        path = tmp_path / "report.json"
        write_report(result, len(invs), path)
        data = read_report(path)
        assert data == report_to_dict(result, 2)
        assert data["summary"]["violations"] == 2
        assert data["summary"]["invariants_checked"] == 2
        assert data["summary"]["logs_processed"] == 3
        assert flagged_ids(data) == {1, 2}
        assert "elapsed" not in json.dumps(data)

    def test_violation_dict_fields(self):
        bundle, corpus, tables, rels, invs = planted_setup()
        result = check_corpus(bundle, corpus, tables, rels, invs)
        item = violation_to_dict(result.violations[0])
        assert set(item) == {
            "invariant_id", "category", "log_id", "api",
            "time", "session_id", "explanation",
        }

    def test_read_report_rejects_other_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"foo": 1}')
        with pytest.raises(MetricsError):
            read_report(path)


def labels_fixture(n_normal=100, n_traces=5, per_trace=2):
    labels = [LabelRecord(i, "normal") for i in range(n_normal)]
    for k in range(n_traces):
        for j in range(per_trace):
            labels.append(LabelRecord(1000 + k * 10 + j, "attack", f"trace_{k}"))
    return labels


class TestMetrics:
    def test_frozen_counts(self):
        labels = labels_fixture()
        flagged = {1000, 1010, 1020, 1030}  # one hit in 4 of the 5 traces
        m = evaluate_metrics(flagged, labels, window_size=20)
        assert (m.tp, m.fp, m.tn, m.fn) == (4, 0, 5, 1)
        assert m.precision == 1.0
        assert m.recall == pytest.approx(0.8)
        assert m.windows == 5 and m.traces == 5
        want = metrics_oracle(flagged, labels, 20)
        assert metrics_to_dict(m) == want

    def test_false_positive_window(self):
        labels = labels_fixture()
        flagged = {1000, 1010, 1020, 7}  # one normal window is hit
        m = evaluate_metrics(flagged, labels, window_size=20)
        assert (m.tp, m.fp, m.tn, m.fn) == (3, 1, 4, 2)
        assert m.precision == pytest.approx(0.75)
        assert m.recall == pytest.approx(0.6)
        # two flags inside one window still cost one false positive
        m2 = evaluate_metrics({7, 8}, labels, window_size=20)
        assert m2.fp == 1 and m2.tp == 0

    def test_ragged_final_window(self):
        labels = [LabelRecord(i, "normal") for i in range(45)]
        m = evaluate_metrics({44}, labels, window_size=20)
        assert m.windows == 3 and m.fp == 1 and m.tn == 2
        assert m.precision == 0.0 and m.recall is None

    def test_none_denominators(self):
        labels = labels_fixture()
        m = evaluate_metrics(set(), labels, window_size=20)
        assert m.precision is None and m.recall == 0.0
        m = evaluate_metrics(set(), [LabelRecord(0, "normal")], window_size=20)
        assert m.precision is None and m.recall is None

    def test_errors(self):
        with pytest.raises(MetricsError):
            evaluate_metrics(set(), [], window_size=0)
        with pytest.raises(MetricsError):
            evaluate_metrics(set(), [LabelRecord(1, "attack")], window_size=20)
        with pytest.raises(MetricsError):
            evaluate_metrics(set(), [LabelRecord(1, "weird")], window_size=20)

    def test_randomized_agreement_with_oracle(self):
        rng = random.Random(99)
        for _ in range(50):
            labels = labels_fixture(
                n_normal=rng.randrange(0, 60),
                n_traces=rng.randrange(0, 6),
                per_trace=rng.randrange(1, 4),
            )
            pool = [r.log_id for r in labels]
            flagged = {i for i in pool if rng.random() < 0.3}
            flagged |= {99999} if rng.random() < 0.5 else set()
            size = rng.randrange(1, 25)
            m = evaluate_metrics(flagged, labels, window_size=size)
            assert metrics_to_dict(m) == metrics_oracle(flagged, labels, size)
