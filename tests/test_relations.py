"""Relationship inference: proposals filtered by data-driven evidence."""

import pytest

from apivet.binlog import RowEvent, ingest_binlog
from apivet.config import PipelineConfig
from apivet.detector import check_corpus
from apivet.errors import InferenceError, SchemaError
from apivet.joins import JoinStores
from apivet.logstore import ingest_logs
from apivet.pipeline import run_generation
from apivet.proposer import RelationshipCandidate, StubProposer
from apivet.relations import (
    API_API,
    API_DB,
    API_ENV,
    Relationship,
    admit_relationships,
    candidate_pairs,
    diagram_to_dict,
    env_coverage,
    infer_relationships,
    load_relationships,
    relationship_from_dict,
    relationship_to_dict,
    save_relationships,
    sequence_plausibility,
    value_overlap,
)
from apivet.schema import merge_bundle
from apivet.seqmodel import train_markov
from apivet.sources import flatten_api_signature, load_env_descriptor, parse_create_table
from apivet.values import value_key

from conftest import api_line, env_line
from oracles import value_overlap_oracle


def small_bundle():
    login = flatten_api_signature(
        "login", {"loginId": "string"}, {"userId": "string"}
    )
    pay = flatten_api_signature(
        "payOrder", {"orderId": "string", "loginId": "string"}, {"status": "string"}
    )
    tables = parse_create_table(
        "CREATE TABLE orders (id VARCHAR(64) PRIMARY KEY, userId VARCHAR(64), "
        "status ENUM('unpaid','paid','cancelled'));"
    )
    env = load_env_descriptor({"sessionId": "string", "userId": "string"})
    return merge_bundle([login, pay] + tables + [env])


def small_corpus(n=6, with_env=True):
    lines = []
    t = 1000
    for i in range(n):
        sid = f"s{i}"
        if with_env:
            lines.append(env_line(sid, {"sessionId": sid, "userId": f"u{i}"}))
        lines.append(api_line("login", t, sid, {"loginId": f"u{i}"}, {"userId": f"u{i}"}))
        lines.append(
            api_line(
                "payOrder",
                t + 50,
                sid,
                {"orderId": f"o{i}", "loginId": f"u{i}"},
                {"status": "paid"},
            )
        )
        t += 1000
    return ingest_logs(lines)


def universes(n=6):
    return {
        "orders": {
            "id": {f"o{i}" for i in range(n)},
            "userId": {f"u{i}" for i in range(n)},
            "status": {"unpaid", "paid"},
        }
    }


def stores_for(corpus, tables=None):
    """JoinStores over the corpus and a replayed orders binlog whose versions
    hold exactly the values of `tables` (universes() by default) per column.

    Version k takes each column's k-th value, cycling: a new id is an insert
    and a repeated one an update of its live row.
    """
    bundle = small_bundle()
    columns = {col: sorted(vals) for col, vals in (tables or universes())["orders"].items()}
    live = {}
    events = []
    for k in range(max(len(vals) for vals in columns.values())):
        row = {col: vals[k % len(vals)] for col, vals in columns.items()}
        before = live.get(row["id"])
        op = "insert" if before is None else "update"
        events.append(RowEvent("orders", op, k, before, row, ordinal=k))
        live[row["id"]] = row
    return JoinStores(bundle, corpus, ingest_binlog(events, bundle, mode="strict"))



class TestCandidatePairs:
    def test_every_api_meets_every_target_once(self):
        bundle = small_bundle()
        pairs = [(f.name, t.name) for f, t in candidate_pairs(bundle)]
        assert ("login", "orders") in pairs
        assert ("login", "payOrder") in pairs
        assert ("payOrder", "login") in pairs
        assert ("login", "Env") in pairs
        assert ("login", "login") not in pairs  # no self pairs


class TestFilters:
    def test_value_overlap_against_oracle(self):
        stores = stores_for(small_corpus())
        table = stores.instances("payOrder")
        universe = universes()["orders"]["id"]
        keys = stores.column_keys("orders", "id")
        assert keys == {value_key(v) for v in universe}
        ok, ratio = value_overlap(table, "arguments.orderId", keys, 0.9)
        expected = value_overlap_oracle(
            [row.get("arguments.orderId") for _, row in table.rows], universe
        )
        assert ok and ratio == expected == 1.0

        # shrink the universe below the threshold
        ok, ratio = value_overlap(table, "arguments.orderId", {value_key("o0")}, 0.9)
        assert not ok
        assert ratio == pytest.approx(1 / 6)

    def test_value_overlap_ignores_null_focal_values(self):
        corpus = ingest_logs(
            [api_line("payOrder", 1, "s0", {"loginId": "u0"}, {"status": "paid"})]
        )
        table = stores_for(corpus).instances("payOrder")
        ok, ratio = value_overlap(table, "arguments.orderId", {value_key("o0")}, 0.9)
        assert not ok and ratio == 0.0  # no evidence means no pass

    def test_sequence_plausibility_uses_pair_score(self):
        # payOrder always moves on to queryOrder, so its smoothed mass
        # for login is 0.1 / (5 + 0.1 * 4) and falls under the threshold.
        model = train_markov([["login", "payOrder", "queryOrder"]] * 5, alpha=0.1)
        ok, score = sequence_plausibility(model, "login", "payOrder", 0.05)
        assert ok and score == pytest.approx(5.1 / 5.4)
        ok, score = sequence_plausibility(model, "payOrder", "login", 0.05)
        assert not ok and score == pytest.approx(0.1 / 5.4)

    def test_env_coverage_counts_resolvable_sessions(self):
        stores = stores_for(small_corpus(n=4, with_env=True))
        table = stores.instances("login")
        env = stores.env_index("Env")
        ok, ratio = env_coverage(table, env, 0.99)
        assert ok and ratio == 1.0
        # drop one session's env record: 3/4 coverage fails at 0.99
        env[0].pop("s0")
        ok, ratio = env_coverage(table, env, 0.99)
        assert not ok and ratio == pytest.approx(0.75)

    def test_env_coverage_counts_only_records_before_the_call(self):
        lines = []
        for i in range(4):
            sid = f"s{i}"
            lines.append(api_line("login", 10, sid, {"loginId": f"u{i}"}, {"userId": f"u{i}"}))
            # written after the call, so the call's env join is empty
            lines.append(env_line(sid, {"sessionId": sid, "userId": f"u{i}"}, time=50))
        stores = stores_for(ingest_logs(lines))
        ok, ratio = env_coverage(stores.instances("login"), stores.env_index("Env"), 0.99)
        assert not ok and ratio == 0.0
        # one session also has a record at the call's own time: still not before it
        lines.append(env_line("s0", {"sessionId": "s0", "userId": "u0"}, time=10))
        lines.append(env_line("s1", {"sessionId": "s1", "userId": "u1"}, time=9))
        stores = stores_for(ingest_logs(lines))
        ok, ratio = env_coverage(stores.instances("login"), stores.env_index("Env"), 0.99)
        assert not ok and ratio == pytest.approx(0.25)


class TestInference:
    def test_end_to_end_acceptance_and_rejection(self):
        corpus = small_corpus()
        model = train_markov([["login", "payOrder"]] * 5, alpha=0.1)
        report = infer_relationships(stores_for(corpus), StubProposer(), model)
        keys = {
            (r.kind, r.focal_entity, r.focal_attr, r.target_entity, r.target_attr)
            for r in report.relationships
        }
        assert (API_DB, "payOrder", "arguments.orderId", "orders", "id") in keys
        assert (API_API, "payOrder", "arguments.loginId", "login", "response.userId") in keys
        assert (API_ENV, "payOrder", "arguments.loginId", "Env", "userId") in keys
        assert (API_ENV, "login", "arguments.loginId", "Env", "userId") in keys
        # a clean corpus with matching universes rejects nothing
        assert report.rejected == []
        assert report.proposed == len(report.relationships)
        # deterministic presentation order
        assert report.relationships == sorted(
            report.relationships,
            key=lambda r: (
                r.focal_entity,
                [API_DB, API_API, API_ENV].index(r.kind),
                r.target_entity,
                r.focal_attr or "",
                r.target_attr or "",
            ),
        )

    def test_api_api_carries_the_window(self):
        corpus = small_corpus()
        model = train_markov([["login", "payOrder"]] * 5, alpha=0.1)
        report = infer_relationships(
            stores_for(corpus), StubProposer(), model, delta_ms=1234
        )
        api_rels = [r for r in report.relationships if r.kind == API_API]
        assert api_rels and all(r.delta_ms == 1234 for r in api_rels)

    def test_low_overlap_is_rejected_with_ratio(self):
        corpus = small_corpus()
        model = train_markov([["login", "payOrder"]] * 5, alpha=0.1)
        poor = universes()
        poor["orders"]["id"] = {"o0"}  # only one sixth of the orderIds resolve
        report = infer_relationships(stores_for(corpus, poor), StubProposer(), model)
        keys = {
            (r.kind, r.focal_entity, r.focal_attr) for r in report.relationships
        }
        assert (API_DB, "payOrder", "arguments.orderId") not in keys
        assert any("value overlap 0.167 below threshold" == reason
                   for _, reason in report.rejected)

    def test_reverse_api_direction_is_rejected(self):
        corpus = small_corpus()
        model = train_markov([["login", "payOrder", "queryOrder"]] * 5, alpha=0.1)

        class Backwards:
            def propose_relationships(self, focal, target):
                if focal.name == "login" and target.name == "payOrder":
                    return [RelationshipCandidate("arguments.loginId", None)]
                return []

        report = infer_relationships(stores_for(corpus), Backwards(), model)
        assert report.relationships == []
        assert len(report.rejected) == 1
        _, reason = report.rejected[0]
        assert "sequence score" in reason and "below threshold" in reason

    def test_strict_mode_raises_on_rejection(self):
        corpus = small_corpus()
        model = train_markov([["login", "payOrder"]] * 5, alpha=0.1)
        poor = universes()
        poor["orders"]["id"] = {"o0"}
        with pytest.raises(InferenceError):
            infer_relationships(
                stores_for(corpus, poor), StubProposer(), model, mode="strict"
            )

    def test_bogus_candidate_attributes_are_rejected(self):
        corpus = small_corpus()
        model = train_markov([["login", "payOrder"]] * 5, alpha=0.1)

        class Liar:
            def propose_relationships(self, focal, target):
                if target.kind == "TABLE" and focal.name == "payOrder":
                    return [
                        RelationshipCandidate("arguments.ghost", "id"),
                        RelationshipCandidate("arguments.orderId", "ghost"),
                    ]
                return []

        report = infer_relationships(stores_for(corpus), Liar(), model)
        assert report.relationships == []
        reasons = {reason for _, reason in report.rejected}
        assert any("does not exist" in r for r in reasons)
        assert len(report.rejected) == 2


class Only:
    """Proposer double: the given candidates for one (focal, target) pair."""

    def __init__(self, focal, target, *candidates):
        self.pair = (focal, target)
        self.candidates = [RelationshipCandidate(*c) for c in candidates]

    def propose_relationships(self, focal, target):
        return list(self.candidates) if (focal.name, target.name) == self.pair else []


def partial_env_corpus(n=6, covered=5):
    """small_corpus where only the first `covered` sessions have env records."""
    lines = []
    for i in range(n):
        sid = f"s{i}"
        if i < covered:
            lines.append(env_line(sid, {"sessionId": sid, "userId": f"u{i}"}))
        lines.append(
            api_line("login", 1000 * (i + 1), sid, {"loginId": f"u{i}"}, {"userId": f"u{i}"})
        )
    return ingest_logs(lines)


class TestRejectionReasons:
    """Every reason infer_relationships gives, with the link it names."""

    MODEL = train_markov([["login", "payOrder", "queryOrder"]] * 5, alpha=0.1)

    @pytest.mark.parametrize("focal, target, cand, kind, reason", [
        ("payOrder", "orders", ("arguments.ghost", "id"), API_DB,
         "focal attribute 'arguments.ghost' does not exist"),
        ("payOrder", "login", ("arguments.ghost", None), API_API,
         "focal attribute 'arguments.ghost' does not exist"),
        ("payOrder", "Env", ("arguments.ghost", "userId"), API_ENV,
         "focal attribute 'arguments.ghost' does not exist"),
        ("payOrder", "orders", ("arguments.orderId", None), API_DB,
         "target column None does not exist"),
        ("payOrder", "orders", ("arguments.orderId", "ghost"), API_DB,
         "target column 'ghost' does not exist"),
        ("payOrder", "login", ("arguments.loginId", "response.ghost"), API_API,
         "target attribute 'response.ghost' does not exist"),
        ("payOrder", "Env", ("arguments.loginId", "ghost"), API_ENV,
         "environment attribute 'ghost' does not exist"),
        ("login", "payOrder", ("arguments.loginId", None), API_API,
         "sequence score 0.0185 below threshold"),
    ])
    def test_attribute_and_sequence_reasons(self, focal, target, cand, kind, reason):
        report = infer_relationships(
            stores_for(small_corpus()), Only(focal, target, cand), self.MODEL
        )
        assert report.relationships == [] and report.proposed == 1
        ((rel, got),) = report.rejected
        assert got == reason
        assert (rel.kind, rel.focal_entity, rel.focal_attr,
                rel.target_entity, rel.target_attr) == (kind, focal, cand[0], target, cand[1])
        assert rel.score is None and rel.provenance == "proposed"
        # every API_API link carries the window, rejected ones included
        assert rel.delta_ms == (60000 if kind == API_API else None)

    def test_overlap_reason(self):
        poor = universes()
        poor["orders"]["id"] = {"o0"}
        report = infer_relationships(
            stores_for(small_corpus(), poor),
            Only("payOrder", "orders", ("arguments.orderId", "id")), self.MODEL,
        )
        assert [reason for _, reason in report.rejected] == [
            "value overlap 0.167 below threshold"
        ]

    def test_coverage_reason(self):
        report = infer_relationships(
            stores_for(partial_env_corpus(n=6, covered=5)),
            Only("login", "Env", ("arguments.loginId", "userId")), self.MODEL,
        )
        assert [reason for _, reason in report.rejected] == [
            "environment coverage 0.833 below threshold"
        ]

    def test_strict_mode_names_the_link_and_the_reason(self):
        poor = universes()
        poor["orders"]["id"] = {"o0"}
        with pytest.raises(InferenceError) as err:
            infer_relationships(
                stores_for(small_corpus(), poor),
                Only("payOrder", "orders", ("arguments.orderId", "id")), self.MODEL,
                mode="strict",
            )
        assert str(err.value) == (
            "API_DB payOrder.arguments.orderId -> orders.id: "
            "value overlap 0.167 below threshold"
        )

    def test_repeated_candidate_is_kept_once(self):
        twice = ("arguments.orderId", "id")
        report = infer_relationships(
            stores_for(small_corpus()), Only("payOrder", "orders", twice, twice), self.MODEL
        )
        assert report.proposed == 2 and report.rejected == []
        assert [(r.focal_attr, r.target_attr) for r in report.relationships] == [twice]

    def test_accepted_links_carry_score_and_provenance(self):
        model = train_markov([["login", "payOrder"]] * 5, alpha=0.1)
        report = infer_relationships(
            stores_for(small_corpus()), StubProposer(), model, delta_ms=777
        )
        by_kind = {}
        for rel in report.relationships:
            by_kind.setdefault(rel.kind, set()).add((rel.provenance, rel.delta_ms))
            assert rel.score is not None
        assert by_kind == {
            API_DB: {("value_overlap", None)},
            API_API: {("sequence_model", 777)},
            API_ENV: {("env_coverage", None)},
        }


class TestSerialization:
    def test_dict_roundtrip(self):
        rel = Relationship(
            kind=API_DB,
            focal_entity="payOrder",
            focal_attr="arguments.orderId",
            target_entity="orders",
            target_attr="id",
            score=0.98,
            provenance="value_overlap",
        )
        assert relationship_from_dict(relationship_to_dict(rel)) == rel

    def test_file_roundtrip(self, tmp_path):
        rels = [
            Relationship(API_DB, "payOrder", "arguments.orderId", "orders", "id"),
            Relationship(API_API, "payOrder", None, "login", None, delta_ms=60000),
            Relationship(API_ENV, "payOrder", "arguments.loginId", "Env", "userId"),
        ]
        path = tmp_path / "relations.json"
        save_relationships(rels, path)
        assert load_relationships(path) == rels

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Relationship("API_FTP", "a", None, "b", None)

    def test_diagram_lists_entities_and_edges(self):
        bundle = small_bundle()
        rels = [Relationship(API_DB, "payOrder", "arguments.orderId", "orders", "id")]
        diagram = diagram_to_dict(bundle, rels)
        assert {"login", "payOrder", "orders", "Env"} <= set(diagram["entities"])
        assert len(diagram["relationships"]) == 1


class TestAdmission:
    GOOD = [
        Relationship(API_DB, "payOrder", "arguments.orderId", "orders", "id"),
        Relationship(API_API, "payOrder", None, "login", None, delta_ms=60000),
        Relationship(API_ENV, "payOrder", "arguments.loginId", "Env", "userId"),
    ]

    def test_links_the_bundle_can_join_are_admitted(self):
        assert admit_relationships(small_bundle(), self.GOOD) == self.GOOD

    def test_the_library_entry_points_refuse_a_link_they_cannot_join(self):
        # a column the table lacks would join nothing and fail every check
        bad = [*self.GOOD, Relationship(API_DB, "payOrder", "arguments.orderId", "orders", "x")]
        problem = "relationship 3: target column 'x' does not exist on 'orders'"
        corpus = small_corpus()
        tables = ingest_binlog([], small_bundle())
        with pytest.raises(SchemaError, match=f"^{problem}$"):
            check_corpus(small_bundle(), corpus, tables, bad, [])
        with pytest.raises(SchemaError, match=f"^{problem}$"):
            run_generation(small_bundle(), corpus, tables, bad, PipelineConfig())

    @pytest.mark.parametrize("copy_of", [0, 1, 2])
    def test_a_link_listed_twice_is_refused_naming_both(self, copy_of):
        # the same kind, entities and attributes; score and provenance may differ
        first = self.GOOD[copy_of]
        again = Relationship(first.kind, first.focal_entity, first.focal_attr,
                             first.target_entity, first.target_attr, first.delta_ms,
                             score=0.5, provenance="proposed")
        with pytest.raises(SchemaError,
                           match=f"^relationship 3: the same link as relationship {copy_of}$"):
            admit_relationships(small_bundle(), [*self.GOOD, again])
