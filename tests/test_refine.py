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


class TestVettedBeforeChecking:
    """Candidates that could fail or stall a shared check are discarded
    before any check is compiled."""

    UNBOUND = "unknown binding: entity 'nope' is not bound in this group"

    @pytest.mark.parametrize("expr", ["TRUE OR EXISTS(nope: TRUE)", "EXISTS(nope: TRUE) OR TRUE"])
    def test_a_quantifier_over_an_unbound_name_is_discarded_wherever_it_sits(self, expr):
        # evaluation would short-circuit past the first and fail on the second
        report = refine_candidates([text_of(expr)], Conversation(), CLEAN, "f", StubProposer())
        (outcome,) = report.outcomes
        assert (outcome.status, outcome.reason, outcome.attempts) == (
            "discarded", self.UNBOUND, 0)

    def test_the_group_path_binds_what_every_group_binds(self):
        groups = [FakeGroup(0, {"a": 1}, {"orders": [], "users": []}),
                  FakeGroup(1, {"a": 1}, {"orders": []})]
        report = refine_candidates(
            [text_of("EXISTS(orders: TRUE) OR TRUE"), text_of("EXISTS(users: TRUE) OR TRUE")],
            Conversation(), groups, "f", StubProposer())
        assert [o.reason for o in report.outcomes] == [
            None, "unknown binding: entity 'users' is not bound in this group"]

    @staticmethod
    def nest(depth):
        body = "orders.a == 1"
        for _ in range(depth):
            body = f"FORALL(orders: {body})"
        return text_of(body)

    def test_a_deep_nest_is_discarded_before_it_is_compiled(self, monkeypatch):
        # over two rows a 50-deep nest would evaluate its predicate 2**50 times
        import time

        from apivet import dsl, refine

        def never(*args):
            raise AssertionError("a candidate over the depth limit was compiled")

        monkeypatch.setattr(refine, "compile_invariant", never)
        groups = [FakeGroup(0, {"a": 1}, {"orders": [{"a": 1}, {"a": 1}]})]
        started = time.perf_counter()
        report = refine_candidates([self.nest(50)], Conversation(), groups, "f", StubProposer())
        assert time.perf_counter() - started < 1.0
        (outcome,) = report.outcomes
        assert (outcome.status, outcome.reason) == (
            "discarded", f"quantifiers nested 50 deep, more than {dsl.MAX_QUANTIFIER_DEPTH}")

    def test_the_depth_limit_itself_is_checked(self):
        from apivet.dsl import MAX_QUANTIFIER_DEPTH

        groups = [FakeGroup(0, {"a": 1}, {"orders": [{"a": 1}, {"a": 1}]})]
        report = refine_candidates(
            [self.nest(MAX_QUANTIFIER_DEPTH), self.nest(MAX_QUANTIFIER_DEPTH + 1)],
            Conversation(), groups, "f", StubProposer())
        assert [o.reason for o in report.outcomes] == [
            None,
            f"quantifiers nested {MAX_QUANTIFIER_DEPTH + 1} deep, "
            f"more than {MAX_QUANTIFIER_DEPTH}",
        ]

    def test_generation_vets_against_the_bindings_of_the_focal_api(self, train, monkeypatch):
        from apivet import dsl

        def never(*args, **kwargs):
            raise AssertionError("nothing should be left to check")

        # joins.failing_calls, the check sweep, takes compile_checks from dsl
        monkeypatch.setattr(dsl, "compile_checks", never)
        texts = [
            pay("unbound_last", "TRUE OR EXISTS(nope: TRUE)"),
            pay("unbound_first", "EXISTS(nope: TRUE) OR TRUE"),
            pay("deep", self.nest(50).split(" WHERE ", 1)[1].replace(
                "orders", "orders__arguments_orderId")),
        ]
        result = generate(train, Scripted({"payOrder": texts}))
        assert [o.reason for _, o in result.outcomes] == [
            self.UNBOUND, self.UNBOUND,
            f"quantifiers nested 50 deep, more than {dsl.MAX_QUANTIFIER_DEPTH}",
        ]


# --- one shared sweep per round, against per-API refinement over groups -------


@pytest.fixture(scope="module")
def train():
    """A small benchgen training set with the relationships inference keeps."""
    from apivet.pipeline import run_inference

    bundle = scenario_bundle()
    bench = generate_normal(40, seed=5)
    corpus = ingest_logs(corpus_lines(bench)[0], mode="strict")
    tables = ingest_binlog(
        parse_row_events(binlog_lines(bench), mode="strict"), bundle, mode="strict"
    )
    relationships = run_inference(bundle, corpus, tables, PipelineConfig()).relationships
    return bundle, corpus, tables, relationships


def generate(train, proposer, config=None):
    return run_generation(*train, config or PipelineConfig(), proposer=proposer)


def per_api_generation(train, proposer, config=None):
    """Generation as one refine_candidates call per API over the list of its
    joined groups, with ids kept unique across APIs."""
    from apivet.joins import JoinStores, build_joined_groups, joined_schema_for
    from apivet.pipeline import GenerationResult
    from apivet.schema import API

    bundle, corpus, tables, relationships = train
    config = config or PipelineConfig()
    stores = JoinStores(bundle, corpus, tables)
    result = GenerationResult()
    used_ids: set[str] = set()
    for entity in sorted(bundle.of_kind(API), key=lambda e: e.name):
        schema = joined_schema_for(bundle, entity.name, relationships)
        proposal = proposer.propose_invariants(schema)
        result.proposals += len(proposal.texts)
        report = refine_candidates(
            proposal.texts, proposal.conversation, build_joined_groups(stores, schema),
            entity.name, proposer, max_rounds=config.max_refine_rounds,
            sample_limit=config.violation_samples, used_ids=used_ids,
        )
        result.refine_calls += report.refine_calls
        result.outcomes.extend((entity.name, o) for o in report.outcomes)
        result.invariants.extend(report.accepted)
    return result


class ForkRecorder:
    """Remembers every conversation a refinement request arrives on."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.forks, self.requests = {}, []

    def record(self, conversation, request):
        self.forks[id(conversation)] = conversation
        self.requests.append(request)

    def fork_messages(self):
        return sorted(tuple((m.role, m.text) for m in fork.messages)
                      for fork in self.forks.values())


class RecordingStub(ForkRecorder, StubProposer):
    def refine_invariant(self, conversation, request):
        self.record(conversation, request)
        return super().refine_invariant(conversation, request)


class Scripted(ForkRecorder):
    """Fixed candidates per API, and a fixed reply to each printed candidate
    it is asked to refine: a text, or an exception to raise."""

    def __init__(self, proposals, replies=None):
        super().__init__()
        self.proposals = proposals
        self.replies = {print_invariant(parse_invariant(k)): v for k, v in (replies or {}).items()}

    def propose_invariants(self, schema):
        conversation = Conversation()
        conversation.append("user", f"invariants for {schema.focal.name}")
        return InvariantProposal(
            texts=list(self.proposals.get(schema.focal.name, ())), conversation=conversation
        )

    def refine_invariant(self, conversation, request):
        from apivet.proposer import render_refine_message

        self.record(conversation, request)
        conversation.append("user", render_refine_message(request))
        reply = self.replies[request.invariant_text]
        if isinstance(reply, Exception):
            raise reply
        conversation.append("assistant", reply)
        return reply


def pay(ident, body):
    return f"INVARIANT {ident} ON payOrder CATEGORY format WHERE {body}"


SET = "payOrder.sessionId IS NOT NULL"
# every call has a non-negative time, so each `time < -n` fails on all of them
CREATE_DIRTY = ("INVARIANT same ON createOrder CATEGORY format "
                "WHERE createOrder.time < 0 AND createOrder.sessionId IS NOT NULL")
CREATE_CLEAN = "INVARIANT same ON createOrder CATEGORY format WHERE createOrder.sessionId IS NOT NULL"
LOGIN_CLEAN = "INVARIANT same ON login CATEGORY format WHERE login.sessionId IS NOT NULL"


def script():
    return Scripted(
        {
            "createOrder": [CREATE_DIRTY],
            "login": [LOGIN_CLEAN],
            "payOrder": [
                pay("same", f"payOrder.time < 0 AND {SET}"),  # refined into the next one's text
                pay("same", SET),
                pay("withdrawn", "payOrder.time < -1"),
                pay("down", "payOrder.time < -2"),
                pay("garbled", "payOrder.time < -3"),
                pay("moved", "payOrder.time < -4"),
                pay("slow", "payOrder.time < -5"),
                pay("stuck", "payOrder.time < -7"),
            ],
        },
        {
            CREATE_DIRTY: CREATE_CLEAN,
            pay("same", f"payOrder.time < 0 AND {SET}"): pay("same", SET),
            pay("withdrawn", "payOrder.time < -1"): "  \n",
            pay("down", "payOrder.time < -2"): ProposalError("provider down"),
            pay("garbled", "payOrder.time < -3"): "INVARIANT garbled ON payOrder WHERE",
            pay("moved", "payOrder.time < -4"): "INVARIANT moved ON login CATEGORY format WHERE TRUE",
            pay("slow", "payOrder.time < -5"): pay("slow", "payOrder.time < -6"),
            pay("slow", "payOrder.time < -6"): pay("slow", "payOrder.time >= 0"),
            pay("stuck", "payOrder.time < -7"): pay("stuck", "payOrder.time < -7"),
        },
    )


def summary(result):
    return [(focal, o.status, o.attempts, o.invariant.id if o.invariant else o.reason)
            for focal, o in result.outcomes]


class TestSharedSweep:
    @staticmethod
    def calls(train, api):
        return sum(1 for event in train[1].events if event.api == api)

    def test_every_way_a_candidate_ends(self, train):
        proposer = script()
        result = generate(train, proposer)
        n = self.calls(train, "payOrder")
        got = summary(result)
        assert got[:2] == [("createOrder", "accepted", 1, "same"),
                           ("login", "accepted", 0, "same_2")]
        assert got[2:4] == [
            # accepted after a refinement, still before the later candidate
            # whose text it became, and after the ids of earlier APIs
            ("payOrder", "accepted", 1, "same_3"),
            ("payOrder", "discarded", 0, "duplicate of an accepted invariant"),
        ]
        assert got[4:8] == [
            ("payOrder", "discarded", 1, "proposer withdrew the candidate"),
            ("payOrder", "discarded", 1, "refinement failed: provider down"),
            ("payOrder", "discarded", 1, got[6][3]),
            ("payOrder", "discarded", 1, "wrong focal entity 'login'"),
        ]
        assert got[6][3].startswith("unparseable: ")
        assert got[8:] == [
            ("payOrder", "accepted", 2, "slow"),
            ("payOrder", "discarded", 3, f"{n} training violation(s) after 3 refinement(s)"),
        ]
        assert result.refine_calls == 11
        assert [inv.id for inv in result.invariants] == ["same", "same_2", "same_3", "slow"]
        assert all(len(request.samples) == 5 for request in proposer.requests)

    def test_no_refinement_rounds(self, train):
        config = PipelineConfig(max_refine_rounds=0)
        proposer = script()
        result = generate(train, proposer, config)
        assert proposer.fork_messages() == [] and result.refine_calls == 0
        dirty = f"{self.calls(train, 'payOrder')} training violation(s) after 0 refinement(s)"
        assert summary(result) == [
            ("createOrder", "discarded", 0,
             f"{self.calls(train, 'createOrder')} training violation(s) after 0 refinement(s)"),
            ("login", "accepted", 0, "same"),
            ("payOrder", "discarded", 0, dirty),
            ("payOrder", "accepted", 0, "same_2"),
            *[("payOrder", "discarded", 0, dirty)] * 6,
        ]

    def test_one_sample_per_request(self, train):
        proposer = script()
        result = generate(train, proposer, PipelineConfig(violation_samples=1))
        assert summary(result) == summary(generate(train, script()))
        assert proposer.requests and all(len(r.samples) == 1 for r in proposer.requests)

    @pytest.mark.parametrize("config", [
        PipelineConfig(),
        PipelineConfig(max_refine_rounds=0),
        PipelineConfig(violation_samples=1),
    ], ids=["defaults", "no_rounds", "one_sample"])
    @pytest.mark.parametrize("make", [script, RecordingStub], ids=["scripted", "stub"])
    def test_matches_per_api_refinement_over_groups(self, train, make, config):
        shared, per_api = make(), make()
        result = generate(train, shared, config)
        expected = per_api_generation(train, per_api, config)
        assert result.outcomes == expected.outcomes
        assert result.invariants == expected.invariants
        assert (result.refine_calls, result.proposals) == (
            expected.refine_calls, expected.proposals)
        assert shared.fork_messages() == per_api.fork_messages()
        assert bool(result.refine_calls) == bool(config.max_refine_rounds)

    def test_groups_only_for_samples_and_one_check_per_api_and_round(self, train, monkeypatch):
        from apivet import dsl, joins, refine

        rounds = []  # per round: [(invariants in the batch, violation counts)]
        checks = []
        groups = []
        functions = []

        def counting_sweep(stores, batches, sample_limit):
            found = sweep_check(stores, batches, sample_limit)
            rounds.append([(len(invs), [n for n, _ in results])
                           for (_, invs), results in zip(batches, found)])
            return found

        def counting_checks(invariants, bind):
            checks.append(len(invariants))
            return compile_checks(invariants, bind)

        class CountingGroup(joins.JoinedGroup):
            __slots__ = ()

            def __init__(self, *args):
                groups.append(args[0])
                super().__init__(*args)

        def counting_function(self, params, body):
            functions.append(params)
            return function(self, params, body)

        sweep_check, compile_checks = refine.sweep_check, dsl.compile_checks
        function = dsl.Emitter.function
        monkeypatch.setattr(refine, "sweep_check", counting_sweep)
        # the name joins.failing_calls, the check sweep, looks up, and the
        # one sweep_check builds a sample's group by
        monkeypatch.setattr(dsl, "compile_checks", counting_checks)
        monkeypatch.setattr(refine, "JoinedGroup", CountingGroup)
        monkeypatch.setattr(dsl.Emitter, "function", counting_function)
        config = PipelineConfig()
        generate(train, script(), config)

        assert len(rounds) == 4  # the stuck candidate is checked after each of 3 refinements
        limit = config.violation_samples
        failing = sum(1 for batches in rounds for _, ns in batches for n in ns if n)
        assert 0 < len(groups) <= failing * limit
        # one generated check per API and round, however many candidates it holds
        assert checks == [size for batches in rounds for size, _ in batches]
        assert len(checks) < sum(checks)
        # besides those, which also hand back the rows they joined for a
        # failing call: one diagnosis (explanation and failing conjuncts) per
        # failing candidate
        assert len(functions) == len(checks) + failing
