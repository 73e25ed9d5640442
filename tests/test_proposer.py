"""Proposer contract: name affinity, stub templates, remote transport."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import apivet
from apivet.config import ProviderConfig
from apivet.dsl import CATEGORIES, Cmp, FieldRef, parse_invariant
from apivet.errors import ExtractionError, ProposalError
from apivet.proposer import (
    Conversation,
    RefineRequest,
    RelationshipCandidate,
    StubProposer,
    ViolationSample,
    extract_fenced_blocks,
    name_words,
    render_invariant_prompt,
    render_refine_message,
    render_relationship_prompt,
)
from apivet.joins import Binding, JoinedSchema
from apivet.relations import Relationship
from apivet.remote import RemoteProposer
from apivet.sources import flatten_api_signature, load_env_descriptor, parse_create_table

from oracles import regex_word_split


@pytest.fixture
def create_order():
    return flatten_api_signature(
        "createOrder",
        {"loginId": "string", "price": "float"},
        {"orderId": "string", "status": "string"},
    )


@pytest.fixture
def orders_table():
    (t,) = parse_create_table(
        "CREATE TABLE orders (id VARCHAR(64) PRIMARY KEY, userId VARCHAR(64), "
        "status ENUM('unpaid','paid','cancelled'), price DOUBLE);"
    )
    return t


class TestNameWords:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("createOrder", ("create", "order")),
            ("orderId", ("order", "id")),
            ("user_roles", ("user", "role")),
            ("orders", ("order",)),
            ("HTTPStatus", ("http", "status")),  # acronym boundary
            ("status", ("status",)),  # -us is not a plural
            ("address", ("address",)),  # -ss is not a plural
            ("id", ("id",)),  # too short to fold
        ],
    )
    def test_splitting_and_plural_folding(self, name, expected):
        assert name_words(name) == expected

    def test_agrees_with_regex_splitter_on_simple_names(self):
        for name in ("createOrder", "payOrder", "refundAmount", "sessionId"):
            folded = tuple(w.rstrip("s") if len(w) > 3 else w for w in regex_word_split(name))
            assert name_words(name) == folded


class TestFencedBlocks:
    def test_extracts_tagged_blocks(self):
        text = "prose\n```json\n{\"a\": 1}\n```\nmore\n```json\n{\"b\": 2}\n```"
        assert extract_fenced_blocks(text, "json") == ['{"a": 1}', '{"b": 2}']

    def test_ignores_other_tags_and_thoughts(self):
        text = (
            "<thought>```json\nnot this\n```</thought>"
            "```invariant\nINVARIANT x ON f CATEGORY format WHERE TRUE\n```"
        )
        blocks = extract_fenced_blocks(text, "invariant")
        assert blocks == ["INVARIANT x ON f CATEGORY format WHERE TRUE"]
        with pytest.raises(ExtractionError):
            extract_fenced_blocks(text, "json")

    def test_missing_block_raises(self):
        with pytest.raises(ExtractionError):
            extract_fenced_blocks("no fences here", "json")


class TestStubRelationships:
    def test_table_candidates_match_id_columns(self, create_order, orders_table):
        stub = StubProposer()
        got = stub.propose_relationships(create_order, orders_table)
        pairs = {(c.from_attr, c.to_attr) for c in got}
        # orderId names the orders table's primary id; price matches price;
        # loginId reaches userId through the synonym table
        assert ("response.orderId", "id") in pairs
        assert ("arguments.price", "price") in pairs
        assert ("arguments.loginId", "userId") in pairs
        assert ("response.status", "status") in pairs

    def test_api_candidate_links_argument_to_response(self, create_order):
        login = flatten_api_signature(
            "login", {"loginId": "string"}, {"userId": "string", "userName": "string"}
        )
        stub = StubProposer()
        got = stub.propose_relationships(create_order, login)
        assert [(c.from_attr, c.to_attr) for c in got] == [
            ("arguments.loginId", "response.userId")
        ]

    def test_env_candidate_skips_session_id(self, create_order):
        env = load_env_descriptor(
            {"sessionId": "string", "userId": "string", "userName": "string"}
        )
        stub = StubProposer()
        got = stub.propose_relationships(create_order, env)
        assert [(c.from_attr, c.to_attr) for c in got] == [
            ("arguments.loginId", "userId")
        ]

    def test_non_api_focal_proposes_nothing(self, orders_table, create_order):
        assert StubProposer().propose_relationships(orders_table, create_order) == []


def joined_schema(focal, *bindings):
    return JoinedSchema(focal=focal, bindings=list(bindings))


def stub_invariants(focal, *bindings):
    proposal = StubProposer().propose_invariants(joined_schema(focal, *bindings))
    return [parse_invariant(text) for text in proposal.texts]


# Prints the __domain template of an argument whose own name and whose
# synonym both name an enum column of a joined table.
_PRINT_DOMAIN = """\
from apivet.joins import Binding, JoinedSchema
from apivet.proposer import StubProposer
from apivet.relations import Relationship
from apivet.remote import RemoteProposer
from apivet.sources import flatten_api_signature, parse_create_table

t1, t2 = parse_create_table(
    "CREATE TABLE t1 (id VARCHAR(64) PRIMARY KEY, state ENUM('open','shut'));"
    "CREATE TABLE t2 (id VARCHAR(64) PRIMARY KEY, status ENUM('paid','unpaid'));"
)
foo = flatten_api_signature(
    "foo", {"t1Id": "string", "t2Id": "string", "state": "string"}, {}
)
bindings = [
    Binding(
        name=table.name,
        relationship=Relationship("API_DB", "foo", f"arguments.{table.name}Id",
                                  table.name, "id"),
        entity=table,
    )
    for table in (t1, t2)
]
stub = StubProposer(synonyms=(("state", "status"),))
proposal = stub.propose_invariants(JoinedSchema(foo, bindings))
(domain,) = [text for text in proposal.texts if "__domain" in text]
print(domain)
"""


class TestStubInvariants:
    def test_templates_parse_and_cover_categories(self, create_order, orders_table):
        rel = Relationship(
            kind="API_DB",
            focal_entity="createOrder",
            focal_attr="response.orderId",
            target_entity="orders",
            target_attr="id",
        )
        schema = joined_schema(
            create_order, Binding(name="orders", relationship=rel, entity=orders_table)
        )
        proposal = StubProposer().propose_invariants(schema)
        invs = [parse_invariant(text) for text in proposal.texts]
        assert all(inv.focal == "createOrder" for inv in invs)
        ids = {inv.id for inv in invs}
        # binding existence, enum domain sweeps, id format, positive amount
        assert "createOrder__orders__exists" in ids
        assert "createOrder__orders__status__paid" in ids
        assert "createOrder__response_orderId__format" in ids
        assert "createOrder__arguments_price__positive" in ids
        assert "createOrder__sessionId__format" in ids
        # the enum domain template reuses the table's domain for the
        # like-named string attribute on the focal call
        domain = [i for i in invs if i.id == "createOrder__response_status__domain"]
        assert len(domain) == 1
        assert 'IN ["unpaid", "paid", "cancelled"]' in proposal.texts[
            invs.index(domain[0])
        ]

    def test_environment_template_restates_the_vetted_link(self):
        # ownerId and userId share no name; loginId would match by synonym
        transfer = flatten_api_signature(
            "transfer", {"loginId": "string", "ownerId": "string"}, {}
        )
        env = load_env_descriptor({"sessionId": "string", "userId": "string"})
        rel = Relationship(
            kind="API_ENV",
            focal_entity="transfer",
            focal_attr="arguments.ownerId",
            target_entity="Env",
            target_attr="userId",
        )
        invs = stub_invariants(transfer, Binding(name="Env", relationship=rel, entity=env))
        (match,) = [inv for inv in invs if inv.category == "environment"]
        assert match.id == "transfer__Env__userId__match"
        assert match.body.body == Cmp(
            "==", FieldRef("transfer", "arguments.ownerId"), FieldRef("Env", "userId")
        )

    def test_flow_template_restates_the_vetted_pair(self, create_order):
        pay = flatten_api_signature(
            "payOrder", {"loginId": "string", "orderId": "string"}, {}
        )
        # both argument names also name a response field of createOrder
        target = flatten_api_signature(
            "createOrder", {}, {"loginId": "string", "orderId": "string"}
        )
        rel = Relationship(
            kind="API_API",
            focal_entity="payOrder",
            focal_attr="arguments.orderId",
            target_entity="createOrder",
            target_attr="response.orderId",
        )
        invs = stub_invariants(
            pay, Binding(name="createOrder", relationship=rel, entity=target)
        )
        (flow,) = [inv for inv in invs if inv.category == "related_api"]
        assert flow.id == "payOrder__createOrder__orderId__flow"
        assert flow.body.body == Cmp(
            "==",
            FieldRef("payOrder", "arguments.orderId"),
            FieldRef("createOrder", "response.orderId"),
        )

    def test_link_without_attributes_yields_no_flow(self):
        pay = flatten_api_signature("payOrder", {"orderId": "string"}, {})
        target = flatten_api_signature("createOrder", {}, {"orderId": "string"})
        rel = Relationship(
            kind="API_API",
            focal_entity="payOrder",
            focal_attr=None,
            target_entity="createOrder",
            target_attr=None,
        )
        invs = stub_invariants(
            pay, Binding(name="createOrder", relationship=rel, entity=target)
        )
        assert invs and not [inv for inv in invs if inv.category == "related_api"]

    def test_domain_prefers_own_name_under_every_hash_seed(self):
        """Set order must not choose between an own-name and a synonym domain."""
        env = dict(os.environ, PYTHONPATH=str(Path(apivet.__file__).parents[1]))
        texts = set()
        for seed in range(6):
            env["PYTHONHASHSEED"] = str(seed)
            proc = subprocess.run(
                [sys.executable, "-c", _PRINT_DOMAIN], env=env,
                capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            texts.add(proc.stdout.strip())
        (text,) = texts
        assert text.endswith('WHERE foo.arguments.state IN ["open", "shut"]')

    def test_conversation_carries_prompt_and_reply(self, create_order):
        proposal = StubProposer().propose_invariants(joined_schema(create_order))
        roles = [m.role for m in proposal.conversation.messages]
        assert roles == ["user", "assistant"]


class TestStubRefine:
    def test_drops_exactly_the_failing_conjuncts(self):
        stub = StubProposer()
        conversation = Conversation()
        request = RefineRequest(
            invariant_text=(
                "INVARIANT x ON f CATEGORY format WHERE f.a == 1 AND f.b == 2"
            ),
            samples=[
                ViolationSample(log_id=5, explanation="", failing_clauses=["f.b == 2"])
            ],
        )
        text = stub.refine_invariant(conversation, request)
        assert parse_invariant(text).body == parse_invariant(
            "INVARIANT x ON f CATEGORY format WHERE f.a == 1"
        ).body

    def test_withdraws_non_conjunctive_bodies(self):
        stub = StubProposer()
        request = RefineRequest(
            invariant_text="INVARIANT x ON f CATEGORY format WHERE f.a == 1",
            samples=[
                ViolationSample(log_id=1, explanation="", failing_clauses=["f.a == 1"])
            ],
        )
        assert stub.refine_invariant(Conversation(), request) == ""

    def test_withdraws_when_everything_fails(self):
        stub = StubProposer()
        request = RefineRequest(
            invariant_text=(
                "INVARIANT x ON f CATEGORY format WHERE f.a == 1 AND f.b == 2"
            ),
            samples=[
                ViolationSample(
                    log_id=1, explanation="", failing_clauses=["f.a == 1", "f.b == 2"]
                )
            ],
        )
        assert stub.refine_invariant(Conversation(), request) == ""


class TestConversation:
    def test_fork_isolates_history(self):
        base = Conversation()
        base.append("user", "hello")
        fork = base.fork()
        fork.append("assistant", "hi")
        assert len(base.messages) == 1
        assert len(fork.messages) == 2


class TestPrompts:
    def test_relationship_prompt_names_both_entities(self, create_order, orders_table):
        text = render_relationship_prompt(create_order, orders_table)
        assert "createOrder" in text and "orders" in text
        assert "arguments.loginId" in text

    def test_invariant_prompt_lists_bindings(self, create_order, orders_table):
        rel = Relationship(
            kind="API_DB",
            focal_entity="createOrder",
            focal_attr="response.orderId",
            target_entity="orders",
            target_attr="id",
        )
        schema = joined_schema(
            create_order, Binding(name="orders", relationship=rel, entity=orders_table)
        )
        text = render_invariant_prompt(schema)
        assert "orders" in text and "createOrder" in text
        for category in CATEGORIES:
            assert f"- {category}: " in text

    def test_refine_message_carries_samples(self):
        request = RefineRequest(
            invariant_text="INVARIANT x ON f CATEGORY format WHERE f.a == 1",
            samples=[
                ViolationSample(log_id=9, explanation="f.a = 2", failing_clauses=[])
            ],
        )
        text = render_refine_message(request)
        assert "f.a = 2" in text


def canned_transport(replies):
    """Transport double: pops canned provider responses in order."""
    queue = list(replies)
    calls = []

    def transport(url, headers, payload, timeout_s):
        calls.append({"url": url, "headers": headers, "payload": payload})
        reply = queue.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return {"choices": [{"message": {"content": reply}}]}

    transport.calls = calls
    return transport


def provider_config(**overrides):
    defaults = dict(
        endpoint_url="https://example.invalid/v1/chat",
        model_name="test-model",
        api_key_env_var=None,
        retries=1,
    )
    defaults.update(overrides)
    return ProviderConfig(**defaults)


class TestRemoteProposer:
    def test_relationships_parse_fenced_json(self, create_order, orders_table):
        reply = (
            "Looking at the schemas.\n```json\n"
            + json.dumps(
                {
                    "relationships": [
                        {"from_column": "response.orderId", "to_column": "id"}
                    ]
                }
            )
            + "\n```"
        )
        remote = RemoteProposer(provider_config(), transport=canned_transport([reply]))
        got = remote.propose_relationships(create_order, orders_table)
        assert got == [RelationshipCandidate("response.orderId", "id")]

    def test_invariants_collect_every_fenced_block(self, create_order):
        reply = (
            "```invariant\nINVARIANT a ON createOrder CATEGORY format WHERE TRUE\n```\n"
            "```invariant\nINVARIANT b ON createOrder CATEGORY format WHERE FALSE\n```"
        )
        remote = RemoteProposer(provider_config(), transport=canned_transport([reply]))
        proposal = remote.propose_invariants(joined_schema(create_order))
        assert len(proposal.texts) == 2
        assert proposal.conversation.messages[-1].role == "assistant"

    def test_asks_again_once_when_no_block_came(self, create_order, orders_table):
        transport = canned_transport(["no fences", "```json\n{\"relationships\": []}\n```"])
        remote = RemoteProposer(provider_config(), transport=transport)
        assert remote.propose_relationships(create_order, orders_table) == []
        messages = transport.calls[1]["payload"]["messages"]
        assert [m["role"] for m in messages] == ["user", "assistant", "user"]
        assert "tagged json" in messages[-1]["content"]

        transport = canned_transport(["no fences", "still none"])
        remote = RemoteProposer(provider_config(), transport=transport)
        with pytest.raises(ExtractionError):
            remote.propose_invariants(joined_schema(create_order))
        assert len(transport.calls) == 2

    def test_transport_errors_are_retried_then_fatal(self, create_order, orders_table):
        transport = canned_transport(
            [OSError("boom"), OSError("boom again")]  # retries=1 -> two attempts
        )
        remote = RemoteProposer(provider_config(), transport=transport)
        with pytest.raises(ProposalError):
            remote.propose_relationships(create_order, orders_table)
        assert len(transport.calls) == 2

    def test_recovers_after_one_transport_failure(self, create_order, orders_table):
        reply = "```json\n{\"relationships\": []}\n```"
        transport = canned_transport([OSError("flaky"), reply])
        remote = RemoteProposer(provider_config(), transport=transport)
        assert remote.propose_relationships(create_order, orders_table) == []

    def test_malformed_payload_is_fatal_not_retried(self, create_order, orders_table):
        def transport(url, headers, payload, timeout_s):
            return {"nope": True}

        remote = RemoteProposer(provider_config(), transport=transport)
        with pytest.raises(ProposalError):
            remote.propose_relationships(create_order, orders_table)

    def test_missing_credential_variable(self, create_order, orders_table, monkeypatch):
        monkeypatch.delenv("APIVET_TEST_KEY", raising=False)
        remote = RemoteProposer(
            provider_config(api_key_env_var="APIVET_TEST_KEY"),
            transport=canned_transport(["```json\n{\"relationships\": []}\n```"]),
        )
        with pytest.raises(ProposalError):
            remote.propose_relationships(create_order, orders_table)

    def test_credential_header_is_attached(self, create_order, orders_table, monkeypatch):
        monkeypatch.setenv("APIVET_TEST_KEY", "sekrit")
        transport = canned_transport(["```json\n{\"relationships\": []}\n```"])
        remote = RemoteProposer(
            provider_config(api_key_env_var="APIVET_TEST_KEY"), transport=transport
        )
        remote.propose_relationships(create_order, orders_table)
        assert transport.calls[0]["headers"]["Authorization"] == "Bearer sekrit"

    def test_refine_returns_block_text(self):
        reply = "```invariant\nINVARIANT x ON f CATEGORY format WHERE f.a == 1\n```"
        remote = RemoteProposer(provider_config(), transport=canned_transport([reply]))
        conversation = Conversation()
        text = remote.refine_invariant(
            conversation,
            RefineRequest(invariant_text="INVARIANT x ON f CATEGORY format WHERE FALSE", samples=[]),
        )
        assert "f.a == 1" in text
