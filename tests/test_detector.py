"""Detector: compiled invariants, corpus checking, scoring, and reports."""

import gc
import json
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apivet.binlog import ingest_binlog
from apivet.detector import (
    DetectionResult,
    ViolationRecord,
    check_corpus,
    compile_invariant,
    evaluate_metrics,
    flagged_ids,
    metrics_to_dict,
    read_report,
    write_report,
)
from apivet.dsl import (
    evaluate,
    explain,
    parse_invariant,
    print_invariant,
)
from apivet.errors import MetricsError
from apivet.logstore import LabelRecord, ingest_logs
from apivet.relations import API_API, API_DB, API_ENV, Relationship
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
    report_to_dict,
    violation_to_dict,
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
                assert fn.explain(group) == explain_oracle(inv, group)
                assert fn.failing_conjuncts(group) == failing_conjuncts_oracle(
                    inv, group
                )
                assert fn.diagnose(group) == (
                    explain_oracle(inv, group), failing_conjuncts_oracle(inv, group)
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


    def test_env_projection_reads_only_the_attributes_invariants_read(self, monkeypatch):
        import apivet.joins as joins

        bundle = detector_bundle()
        corpus = ingest_logs([
            env_line("s1", {"sessionId": "s1", "userId": "u1"}),
            api_line("login", 10, "s1", {"loginId": "u1"}, {"userId": "u1"}),
            api_line("login", 20, "s1", {"loginId": "u2"}, {"userId": "u2"}),
        ])
        tables = ingest_binlog([], bundle, mode="strict")
        rels = [Relationship(API_ENV, "login", "arguments.loginId", "Env", "userId")]
        inv = parse_invariant(
            "INVARIANT env_user ON login CATEGORY environment "
            "WHERE EXISTS(Env: Env.userId == login.arguments.loginId)"
        )
        asked = []
        env_index = joins.JoinStores.env_index

        def recording(self, entity_name, attrs=None):
            asked.append((entity_name, attrs))
            return env_index(self, entity_name, attrs)

        monkeypatch.setattr(joins.JoinStores, "env_index", recording)
        result = check_corpus(bundle, corpus, tables, rels, [inv])
        assert set(asked) == {("Env", frozenset({"userId"}))}
        assert [v.log_id for v in result.violations] == [1]
        assert "Env.userId = \"u1\"" in result.violations[0].explanation

    def test_projects_only_the_apis_invariants_read(self, monkeypatch):
        import apivet.joins as joins

        login = flatten_api_signature("login", {"loginId": "string"}, {"userId": "string"})
        pay = flatten_api_signature("payOrder", {"orderId": "string"}, {"status": "string"})
        query = flatten_api_signature("queryOrder", {"orderId": "string"}, {})
        refund = flatten_api_signature("refundOrder", {"orderId": "string"}, {})
        bundle = merge_bundle([login, pay, query, refund])
        corpus = ingest_logs([
            api_line("login", 10, "s1", {"loginId": "u1"}, {"userId": "u1"}),
            api_line("queryOrder", 15, "s1", {"orderId": "o1"}),
            api_line("payOrder", 20, "s1", {"orderId": "o1"}, {"status": "paid"}),
            api_line("refundOrder", 25, "s2", {"orderId": "o1"}),
            api_line("payOrder", 30, "s2", {"orderId": "o2"}, {"status": "paid"}),
        ])
        rels = [
            Relationship(API_API, "payOrder", None, "login", None, delta_ms=60000),
            # joined, but quantified over by no invariant: not projected
            Relationship(API_API, "payOrder", None, "queryOrder", None, delta_ms=60000),
        ]
        inv = parse_invariant(
            "INVARIANT logged_in ON payOrder CATEGORY related_api "
            "WHERE EXISTS(login: TRUE)"
        )
        projected = []
        project_instances = joins.project_instances

        def recording(events, entities):
            entities = list(entities)
            projected.append(sorted(entity.name for entity in entities))
            return project_instances(events, entities)

        monkeypatch.setattr(joins, "project_instances", recording)
        result = check_corpus(bundle, corpus, {}, rels, [inv])
        assert projected == [["login", "payOrder"]]  # one pass, two APIs
        assert [v.log_id for v in result.violations] == [4]  # s2 never logged in
        assert result.groups_built == 2

    def test_one_sweep_and_code_only_for_what_fails(self, monkeypatch):
        # whatever jobs asks for, one sweep checks every call; code is
        # generated once per focal API's check, once per API with a failing
        # call for its group bindings, and once per failing invariant for its
        # explanation
        import apivet.dsl as dsl
        import apivet.joins as joins

        sweeps, functions = [], []

        class CountingSweep(joins.Sweep):
            def __init__(self, *args):
                sweeps.append(args)
                super().__init__(*args)

        function = dsl.Emitter.function

        def counting_function(self, params, body):
            functions.append(params)
            return function(self, params, body)

        monkeypatch.setattr(joins, "Sweep", CountingSweep)
        monkeypatch.setattr(dsl.Emitter, "function", counting_function)
        bundle, _, tables, rels, invs = planted_setup()
        corpus = ingest_logs([
            api_line("login", 50, "s1", {"loginId": "u1"}, {"userId": "u1"}),
            api_line("payOrder", 100, "s1", {"orderId": "o1"}, {"status": "paid"}),
            api_line("payOrder", 200, "s2", {"orderId": "o2"}, {"status": "oops"}),
            api_line("payOrder", 300, "s3", {"orderId": "o9"}, {"status": "paid"}),
            api_line("login", 400, "s4", {"loginId": "u4"}, {"userId": "u4"}),
        ])
        clean = parse_invariant(
            "INVARIANT login_ok ON login CATEGORY format WHERE login.sessionId IS NOT NULL")
        result = check_corpus(bundle, corpus, tables, rels, [*invs, clean], jobs=8)
        assert [(v.log_id, v.invariant_id) for v in result.violations] == [
            (2, "paid_status"), (3, "order_exists")]
        assert len(sweeps) == 1
        focal_apis, failing_apis, failing_invariants = 2, 1, 2
        assert len(functions) == focal_apis + failing_apis + failing_invariants


class TestMemory:
    """Nothing detection builds outlives check_corpus: the generated code's
    namespaces hold the cursors and the store's indexes, and a reference
    cycle through them would keep all of it until a full collection."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_store_and_cursors_die_on_return(self, monkeypatch, jobs):
        import apivet.detector as detector
        import apivet.joins as joins

        stores, cursors, indexes = [], [], []

        def tracked_stores(*args):
            store = joins.JoinStores(*args)
            stores.append(weakref.ref(store))
            return store

        class Index(dict):  # a dict that takes weak references
            pass

        class TrackedCursor(joins.TableCursor):
            def __init__(self, events, columns):
                super().__init__(events, columns)
                # the generated checks hold the bucket maps, not the cursor
                self._probes = tuple((column, Index(), {}) for column in columns)
                self.buckets = {column: index for column, index, _ in self._probes}
                cursors.append(weakref.ref(self))
                indexes.extend(weakref.ref(index) for index in self.buckets.values())

        monkeypatch.setattr(detector, "JoinStores", tracked_stores)
        monkeypatch.setattr(joins, "TableCursor", TrackedCursor)
        bundle, corpus, tables, rels, invs = planted_setup()
        gc.collect()
        gc.disable()
        try:
            result = check_corpus(bundle, corpus, tables, rels, invs, jobs=jobs)
            assert result.violations
            assert len(stores) == 1 and cursors
            assert stores[0]() is None
            assert all(cursor() is None for cursor in cursors)
            assert all(index() is None for index in indexes)
        finally:
            gc.enable()


# report strings with everything json escapes: quotes, backslashes, control
# characters, non-BMP characters and lone surrogates
REPORT_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\ufeff\U0001f600'),
        st.characters(blacklist_categories=()),
    ),
    max_size=12,
)
REPORT_INT = st.integers(0, 2**70)


@st.composite
def detection_results(draw):
    violations = draw(st.lists(
        st.builds(ViolationRecord, REPORT_TEXT, REPORT_TEXT, REPORT_INT, REPORT_TEXT,
                  REPORT_INT, REPORT_TEXT, REPORT_TEXT),
        max_size=4,
    ))
    return DetectionResult(violations, draw(REPORT_INT), draw(REPORT_INT), draw(REPORT_INT))


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

    @settings(max_examples=200, deadline=None)
    @given(result=detection_results(), invariants_checked=st.integers(0, 2**70))
    def test_report_bytes_are_json_dumps(self, tmp_path_factory, result, invariants_checked):
        path = tmp_path_factory.mktemp("report") / "report.json"
        write_report(result, invariants_checked, path)
        want = json.dumps(report_to_dict(result, invariants_checked), indent=2) + "\n"
        assert path.read_bytes() == want.encode("utf-8")

    def test_writing_a_report_holds_no_copy_of_it(self, tmp_path):
        # the report streams to the file one violation at a time: neither
        # the violation dicts nor the whole text are ever held
        explanation = "orders.status == 'paid' failed: " + "x" * 200
        violations = [
            ViolationRecord(f"inv{i % 50}", "state", i, "refund", 10 * i, f"s{i}", explanation)
            for i in range(20_000)
        ]
        result = DetectionResult(violations, logs_processed=20_000)
        path = tmp_path / "report.json"
        tracemalloc.start()
        try:
            write_report(result, 50, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 5_000_000
        assert peak < size // 20, (peak, size)

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
