"""Accept-or-refine loop: accepted invariants never violate training data."""

import pytest

from apivet.benchgen import binlog_lines, corpus_lines, generate_normal, scenario_bundle
from apivet.binlog import ingest_binlog, parse_row_events
from apivet.config import PipelineConfig
from apivet.dsl import parse_invariant, print_invariant
from apivet.errors import ProposalError
from apivet.logstore import ingest_logs
from apivet.pipeline import run_generation
from apivet.proposer import Conversation, InvariantProposal, StubProposer
from apivet.refine import refine_candidates

from generators import FakeGroup


def make_groups(rows):
    """One group per focal row; a single always-bound empty binding."""
    return [
        FakeGroup(log_id=i, focal=row, bindings={"orders": []})
        for i, row in enumerate(rows)
    ]


CLEAN = make_groups([{"a": 1, "b": 2}, {"a": 1, "b": 2}])
B_DIRTY = make_groups([{"a": 1, "b": 2}, {"a": 1, "b": 99}])


def text_of(expr):
    return f"INVARIANT cand ON f CATEGORY format WHERE {expr}"


class TestAcceptance:
    def test_clean_candidate_accepted_without_refinement(self):
        report = refine_candidates(
            [text_of("f.a == 1")], Conversation(), CLEAN, "f", StubProposer()
        )
        assert [o.status for o in report.outcomes] == ["accepted"]
        assert report.outcomes[0].attempts == 0
        assert report.refine_calls == 0
        assert len(report.accepted) == 1
        # accepted invariants pass the whole corpus by construction
        from apivet.dsl import evaluate

        for group in CLEAN:
            assert evaluate(report.accepted[0], group).passed

    def test_tautology_accepted(self):
        report = refine_candidates(
            [text_of("TRUE")], Conversation(), CLEAN, "f", StubProposer()
        )
        assert report.outcomes[0].status == "accepted"

    def test_conjunction_is_narrowed_to_the_clean_part(self):
        report = refine_candidates(
            [text_of("f.a == 1 AND f.b == 2")],
            Conversation(),
            B_DIRTY,
            "f",
            StubProposer(),
        )
        (outcome,) = report.outcomes
        assert outcome.status == "accepted"
        assert outcome.attempts == 1
        assert report.refine_calls == 1
        assert print_invariant(report.accepted[0]).endswith("WHERE f.a == 1")

    def test_non_conjunctive_violation_is_discarded(self):
        report = refine_candidates(
            [text_of("f.b == 2")], Conversation(), B_DIRTY, "f", StubProposer()
        )
        (outcome,) = report.outcomes
        assert outcome.status == "discarded"
        assert outcome.reason == "proposer withdrew the candidate"
        assert report.accepted == []


class TestDiscards:
    def test_unparseable_candidate(self):
        report = refine_candidates(
            ["WHERE nonsense"], Conversation(), CLEAN, "f", StubProposer()
        )
        (outcome,) = report.outcomes
        assert outcome.status == "discarded"
        assert "unparseable" in outcome.reason

    def test_wrong_focal_entity(self):
        report = refine_candidates(
            ["INVARIANT x ON other CATEGORY format WHERE TRUE"],
            Conversation(),
            CLEAN,
            "f",
            StubProposer(),
        )
        assert "wrong focal entity" in report.outcomes[0].reason

    def test_unknown_binding(self):
        report = refine_candidates(
            [text_of("EXISTS(ghosts: ghosts.x == 1)")],
            Conversation(),
            CLEAN,
            "f",
            StubProposer(),
        )
        assert "unknown binding" in report.outcomes[0].reason

    def test_duplicates_collapse_after_refinement(self):
        # both candidates refine to the same body; the second is dropped
        report = refine_candidates(
            [text_of("f.a == 1"), text_of("f.a == 1 AND f.b == 2")],
            Conversation(),
            B_DIRTY,
            "f",
            StubProposer(),
        )
        statuses = [o.status for o in report.outcomes]
        assert statuses == ["accepted", "discarded"]
        assert "duplicate" in report.outcomes[1].reason
        assert len(report.accepted) == 1

    def test_ids_deduplicate_with_suffixes(self):
        report = refine_candidates(
            [
                "INVARIANT same ON f CATEGORY format WHERE f.a == 1",
                "INVARIANT same ON f CATEGORY format WHERE f.b == 2",
            ],
            Conversation(),
            CLEAN,
            "f",
            StubProposer(),
        )
        ids = [inv.id for inv in report.accepted]
        assert len(ids) == len(set(ids)) == 2
        assert ids[0] == "same"


class RoundCounter:
    """Proposer double that always returns the same still-dirty text."""

    def __init__(self, reply):
        self.reply = reply
        self.calls = 0

    def refine_invariant(self, conversation, request):
        self.calls += 1
        return self.reply


class TestRoundBudget:
    def test_budget_exhausted_discards(self):
        doubler = RoundCounter(text_of("f.b == 99 AND f.b == 100"))
        report = refine_candidates(
            [text_of("f.b == 98 AND f.b == 97")],
            Conversation(),
            B_DIRTY,
            "f",
            doubler,
            max_rounds=3,
            sample_limit=1,
        )
        (outcome,) = report.outcomes
        assert outcome.status == "discarded"
        assert outcome.attempts == 3
        assert doubler.calls == 3
        assert report.refine_calls == 3
        # the count covers every violating group, not just the one sampled
        assert outcome.reason == "2 training violation(s) after 3 refinement(s)"

    def test_zero_rounds_means_accept_or_discard_immediately(self):
        doubler = RoundCounter(text_of("TRUE"))
        report = refine_candidates(
            [text_of("f.b == 99")], Conversation(), B_DIRTY, "f", doubler, max_rounds=0
        )
        assert report.outcomes[0].status == "discarded"
        assert doubler.calls == 0

    def test_sample_limit_caps_feedback(self):
        seen = {}

        class Inspector:
            def refine_invariant(self, conversation, request):
                seen["samples"] = request.samples
                return ""

        # groups 1, 4 and 6 pass, so the samples are not simply the first five
        groups = make_groups([{"b": i} for i in range(12)])
        refine_candidates(
            [text_of("f.b IN [1, 4, 6] AND f.b < 100")],
            Conversation(),
            groups,
            "f",
            Inspector(),
            sample_limit=5,
        )
        samples = seen["samples"]
        assert [s.log_id for s in samples] == [0, 2, 3, 5, 7]
        for sample in samples:
            assert sample.explanation.startswith("f.b IN [1, 4, 6] failed")
            assert f"f.b = {sample.log_id}" in sample.explanation
            assert sample.failing_clauses == ["f.b IN [1, 4, 6]"]

    def test_proposal_error_discards(self):
        class Exploder:
            def refine_invariant(self, conversation, request):
                raise ProposalError("provider down")

        report = refine_candidates(
            [text_of("f.b == 99")], Conversation(), B_DIRTY, "f", Exploder()
        )
        assert "refinement failed" in report.outcomes[0].reason


class TestForkIsolation:
    def test_each_candidate_gets_a_fresh_fork(self):
        histories = []

        class Recorder:
            def refine_invariant(self, conversation, request):
                histories.append(len(conversation.messages))
                return ""

        base = Conversation()
        base.append("user", "shared prompt")
        refine_candidates(
            [text_of("f.b == 99"), text_of("f.b == 98")],
            base,
            B_DIRTY,
            "f",
            Recorder(),
        )
        # both forks start from the same single-message history
        assert histories == [1, 1]
        assert len(base.messages) == 1


class TestRunGenerationIds:
    def test_outcomes_name_the_written_ids(self):
        class SameIds:
            """Two clean candidates per API, every one of them named `same`."""

            def propose_invariants(self, schema):
                focal = schema.focal.name
                return InvariantProposal(
                    texts=[
                        f"INVARIANT same ON {focal} CATEGORY format WHERE TRUE",
                        f"INVARIANT same ON {focal} CATEGORY format WHERE NOT FALSE",
                    ],
                    conversation=Conversation(),
                )

        bundle = scenario_bundle()
        bench = generate_normal(20, seed=3)
        corpus = ingest_logs(corpus_lines(bench)[0], mode="strict")
        tables = ingest_binlog(
            parse_row_events(binlog_lines(bench), mode="strict"), bundle, mode="strict"
        )
        result = run_generation(
            bundle, corpus, tables, [], PipelineConfig(), proposer=SameIds()
        )
        written = [inv.id for inv in result.invariants]
        assert len(written) > 2 and len(set(written)) == len(written)
        assert [o.invariant.id for _, o in result.outcomes] == written
        assert written[:3] == ["same", "same_2", "same_3"]
