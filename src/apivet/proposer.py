"""Proposer bridge: the contract, prompt rendering, fenced-block extraction
and the offline stub.

Two providers implement the same contract. The stub, here, is fully
deterministic and runs offline: it proposes relationships by name affinity,
and its invariant templates restate the relationships inference accepted,
plus field-shape checks drawn from the schema. The remote provider
(`remote.RemoteProposer`) speaks a chat-completion dialect over HTTP and is
loaded only when configured. Pipelines depend only on the contract, so
either can back a run. The invariant language is imported by the stub's
invariant methods, so relationship inference does not load it.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from .config import DEFAULT_SYNONYMS
from .errors import ExtractionError
from .schema import API, ENV, TABLE, EntityType
from .values import Record

if TYPE_CHECKING:
    from .dsl import Invariant

ID_VALUE_PATTERN = "[A-Za-z0-9_-]+"

_AMOUNT_WORDS = ("price", "amount", "quantity")


class Message(Record):
    __slots__ = ("role", "text")

    def __init__(self, role: str, text: str):
        self.role = role
        self.text = text


class Conversation(Record):
    __slots__ = ("messages",)

    def __init__(self, messages: list[Message] | None = None):
        self.messages = [] if messages is None else messages

    def append(self, role: str, text: str) -> None:
        self.messages.append(Message(role=role, text=text))

    def fork(self) -> "Conversation":
        return Conversation(messages=list(self.messages))


class RelationshipCandidate(Record):
    __slots__ = ("from_attr", "to_attr")

    def __init__(self, from_attr: str, to_attr: str | None):
        self.from_attr = from_attr
        self.to_attr = to_attr


class InvariantProposal(Record):
    __slots__ = ("texts", "conversation")

    def __init__(self, texts: list[str], conversation: Conversation):
        self.texts = texts
        self.conversation = conversation


class ViolationSample(Record):
    __slots__ = ("log_id", "explanation", "failing_clauses")

    def __init__(self, log_id: int, explanation: str, failing_clauses: list[str]):
        self.log_id = log_id
        self.explanation = explanation
        self.failing_clauses = failing_clauses


class RefineRequest(Record):
    __slots__ = ("invariant_text", "samples")

    def __init__(self, invariant_text: str, samples: list[ViolationSample]):
        self.invariant_text = invariant_text
        self.samples = samples


class ProposerContract:
    """What a proposer must answer; see StubProposer for the offline default."""

    def propose_relationships(
        self, focal: EntityType, target: EntityType
    ) -> list[RelationshipCandidate]:
        raise NotImplementedError

    def propose_invariants(self, joined_schema) -> InvariantProposal:
        raise NotImplementedError

    def refine_invariant(self, conversation: Conversation, request: RefineRequest) -> str:
        raise NotImplementedError


# --- prompt rendering ------------------------------------------------------


def _render_entity(entity: EntityType) -> str:
    attrs = ", ".join(
        f'"{attr.path}": <{attr.type.tag}>' for attr in entity.attributes
    )
    return f"{entity.name} {{ {attrs} }}"


def render_relationship_prompt(focal: EntityType, target: EntityType) -> str:
    """Deterministic prompt asking for join relationships between two entities."""
    return (
        "You are a software engineer who knows the business logic of web\n"
        "applications inside out. Given two entity types from one application,\n"
        "decide whether any attribute of the focal entity refers to the same\n"
        "objects as an attribute of the target entity.\n"
        "\n"
        "A relationship is a pair of attributes whose values are drawn from a\n"
        "shared identifier space (for example, a call argument holding a row's\n"
        "key). List every such pair; use an empty list when there is none.\n"
        "\n"
        "Reply with one fenced block tagged json of the form:\n"
        "```json\n"
        '{"relationships": [{"from_column": "<focal attribute>", '
        '"to_column": "<target attribute>"}]}\n'
        "```\n"
        "\n"
        "Example:\n"
        '- Focal Entity Type: cancelOrder { "userId": <string>, "orderId": <string> }\n'
        '- Target Entity Type: users { "id": <string>, "name": <string> }\n'
        "Answer:\n"
        "```json\n"
        '{"relationships": [{"from_column": "userId", "to_column": "id"}]}\n'
        "```\n"
        "\n"
        "Now the input:\n"
        f"- Focal Entity Type: {_render_entity(focal)}\n"
        f"- Target Entity Type: {_render_entity(target)}\n"
    )


_CATEGORY_NOTES = {
    "common_sense": "values that are implausible on their face (a price at or below zero)",
    "format": "well-formedness of a single field (identifier charset, non-null)",
    "database": "agreement between the call and the joined table rows",
    "environment": "agreement between call arguments and the session environment",
    "related_api": "data flowing from an earlier call's response into this call",
}


def render_invariant_prompt(joined_schema) -> str:
    """Deterministic prompt describing the joined schema and asking for invariants."""
    lines = [
        "You are a software engineer writing runtime checks for a web",
        "application. Propose invariants that every legitimate call must",
        "satisfy, one per fenced block tagged invariant, in this grammar:",
        "",
        "```",
        "INVARIANT <name> ON <focal entity> CATEGORY <category>",
        "WHERE <boolean expression over entity.attribute references>",
        "```",
        "",
        "Expressions support AND, OR, NOT, EXISTS(binding: ...),",
        "FORALL(binding: ...), comparisons, IN [..], MATCHES \"regex\",",
        "and IS [NOT] NULL. Reference a joined entity only inside a",
        "quantifier that binds it.",
        "",
        "Categories:",
    ]
    for cat, note in _CATEGORY_NOTES.items():
        lines.append(f"- {cat}: {note}")
    lines.append("")
    lines.append(f"Focal entity: {_render_entity(joined_schema.focal)}")
    if joined_schema.bindings:
        lines.append("Joined entities (quantifier bindings):")
        for binding in joined_schema.bindings:
            lines.append(
                f"- {binding.name} ({binding.relationship.kind}): "
                f"{_render_entity(binding.entity)}"
            )
    else:
        lines.append("Joined entities: none")
    lines.append("")
    lines.append("Example:")
    lines.append("```invariant")
    lines.append(
        "INVARIANT refund_paid ON refundOrder CATEGORY database "
        'WHERE EXISTS(orders: orders.status == "paid")'
    )
    lines.append("```")
    return "\n".join(lines) + "\n"


def render_refine_message(request: RefineRequest) -> str:
    lines = [
        "The invariant below is violated by legitimate traffic. Repair it so",
        "every sample passes, or reply with an empty invariant block to drop it.",
        "",
        request.invariant_text,
        "",
        "Violating samples:",
    ]
    for sample in request.samples:
        lines.append(f"- log {sample.log_id}: {sample.explanation}")
        if sample.failing_clauses:
            lines.append(f"  failing clauses: {'; '.join(sample.failing_clauses)}")
    return "\n".join(lines) + "\n"


# --- fenced block extraction -------------------------------------------------

_THOUGHT_RE = re.compile(r"<thought>.*?</thought>", re.DOTALL)


def extract_fenced_blocks(text: str, tag: str) -> list[str]:
    """Contents of every ```<tag> fence, ignoring any <thought> spans."""
    cleaned = _THOUGHT_RE.sub("", text)
    pattern = re.compile(
        rf"```{re.escape(tag)}[ \t]*\n(.*?)```", re.DOTALL
    )
    blocks = [match.group(1).strip("\n") for match in pattern.finditer(cleaned)]
    if not blocks:
        raise ExtractionError(f"no fenced block tagged {tag!r} in response")
    return blocks


# --- name affinity ---------------------------------------------------------

_CAMEL_SPLIT_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


def _fold_plural(word: str) -> str:
    if len(word) > 3 and word.endswith("s") and not word.endswith(("ss", "us", "is")):
        return word[:-1]
    return word


def name_words(name: str) -> tuple[str, ...]:
    """Split a camelCase or snake_case name into folded lowercase words."""
    pieces: list[str] = []
    for chunk in name.split("_"):
        if chunk:
            pieces.extend(_CAMEL_SPLIT_RE.split(chunk))
    return tuple(_fold_plural(piece.lower()) for piece in pieces if piece)


def _synonym_map(
    synonyms: tuple[tuple[str, str], ...]
) -> dict[tuple[str, ...], set[tuple[str, ...]]]:
    table: dict[tuple[str, ...], set[tuple[str, ...]]] = {}
    for left, right in synonyms:
        a, b = name_words(left), name_words(right)
        table.setdefault(a, set()).add(b)
        table.setdefault(b, set()).add(a)
    return table


# --- deterministic stub ------------------------------------------------------


class StubProposer(ProposerContract):
    """Offline proposer driven by name affinity and schema templates."""

    def __init__(self, synonyms: tuple[tuple[str, str], ...] = DEFAULT_SYNONYMS):
        self._synonyms = _synonym_map(tuple(synonyms))

    # relationship proposals

    def propose_relationships(
        self, focal: EntityType, target: EntityType
    ) -> list[RelationshipCandidate]:
        if focal.kind != API:
            return []
        if target.kind == TABLE:
            return self._table_candidates(focal, target)
        if target.kind == API:
            return self._api_candidates(focal, target)
        if target.kind == ENV:
            return self._env_candidates(focal, target)
        return []

    def _payload_attrs(self, entity: EntityType, roots: tuple[str, ...]):
        for attr in entity.attributes:
            if attr.segments[0] in roots:
                yield attr

    def _names_of(self, name: str) -> set[tuple[str, ...]]:
        words = name_words(name)
        return {words} | self._synonyms.get(words, set())

    def _table_candidates(
        self, focal: EntityType, target: EntityType
    ) -> list[RelationshipCandidate]:
        out: list[RelationshipCandidate] = []
        entity_id = name_words(target.name) + ("id",)
        for attr in self._payload_attrs(focal, ("arguments", "response")):
            focal_names = self._names_of(attr.last_segment)
            # `<entity>Id` points at the primary id column of a like-named table.
            names_entity = entity_id in focal_names
            for column in target.attributes:
                if focal_names & self._names_of(column.path) or (
                    names_entity and name_words(column.path) == ("id",)
                ):
                    out.append(RelationshipCandidate(attr.path, column.path))
        return out

    def _api_candidates(
        self, focal: EntityType, target: EntityType
    ) -> list[RelationshipCandidate]:
        for arg in self._payload_attrs(focal, ("arguments",)):
            arg_names = self._names_of(arg.last_segment)
            for resp in self._payload_attrs(target, ("response",)):
                if arg_names & self._names_of(resp.last_segment):
                    return [RelationshipCandidate(arg.path, resp.path)]
        return []

    def _env_candidates(
        self, focal: EntityType, target: EntityType
    ) -> list[RelationshipCandidate]:
        out = []
        seen: set[str] = set()
        for arg in self._payload_attrs(focal, ("arguments",)):
            arg_names = self._names_of(arg.last_segment)
            for env_attr in target.attributes:
                if env_attr.path == "sessionId":
                    continue
                if arg_names & self._names_of(env_attr.path):
                    if env_attr.path not in seen:
                        seen.add(env_attr.path)
                        out.append(RelationshipCandidate(arg.path, env_attr.path))
        return out

    # invariant proposals

    def propose_invariants(self, joined_schema) -> InvariantProposal:
        from .dsl import print_invariant

        texts = [print_invariant(inv) for inv in self._templates(joined_schema)]
        conversation = Conversation()
        conversation.append("user", render_invariant_prompt(joined_schema))
        conversation.append(
            "assistant",
            "\n".join(f"```invariant\n{text}\n```" for text in texts) or "none",
        )
        return InvariantProposal(texts=texts, conversation=conversation)

    def _templates(self, joined_schema) -> list[Invariant]:
        from .dsl import (
            And,
            BoolConst,
            Cmp,
            FieldRef,
            InSet,
            Invariant,
            Lit,
            Match,
            NullCheck,
            Quant,
        )

        focal = joined_schema.focal
        fname = focal.name
        out: list[Invariant] = []

        def add(suffix: str, category: str, body) -> None:
            ident = re.sub(r"[^A-Za-z0-9_]", "_", f"{fname}__{suffix}")
            out.append(Invariant(id=ident, focal=fname, category=category, body=body))

        def add_id_format(path: str) -> None:
            ref = FieldRef(fname, path)
            add(
                f"{path}__format",
                "format",
                And((NullCheck(ref, negated=True), Match(ref, ID_VALUE_PATTERN))),
            )

        enum_domains: dict[tuple[str, ...], tuple[str, ...]] = {}
        for binding in joined_schema.bindings:
            rel = binding.relationship
            if rel.kind == "API_DB":
                add(
                    f"{binding.name}__exists",
                    "database",
                    Quant(exists=True, name=binding.name, body=BoolConst(True)),
                )
                for column in binding.entity.attributes:
                    domain = column.type.enum_domain  # set on enum columns only
                    if domain is None:
                        continue
                    enum_domains.setdefault(name_words(column.path), domain)
                    for value in domain:
                        add(
                            f"{binding.name}__{column.path}__{value}",
                            "database",
                            Quant(
                                exists=True,
                                name=binding.name,
                                body=Cmp(
                                    "==",
                                    FieldRef(binding.name, column.path),
                                    Lit(value),
                                ),
                            ),
                        )
            elif rel.focal_attr is not None and rel.target_attr is not None:
                # API_ENV and API_API: restate the link inference vetted.
                suffix, category = (
                    ("match", "environment")
                    if rel.kind == "API_ENV"
                    else ("flow", "related_api")
                )
                target_name = rel.target_attr.rsplit(".", 1)[-1]
                add(
                    f"{binding.name}__{target_name}__{suffix}",
                    category,
                    Quant(
                        exists=True,
                        name=binding.name,
                        body=Cmp(
                            "==",
                            FieldRef(fname, rel.focal_attr),
                            FieldRef(binding.name, rel.target_attr),
                        ),
                    ),
                )

        # Field-shape templates need no bindings.
        for attr in self._payload_attrs(focal, ("arguments", "response")):
            words = name_words(attr.last_segment)
            if attr.type.tag == "string" and words and words[-1] == "id":
                add_id_format(attr.path)
            if attr.type.tag == "string":
                # own name first, then synonyms in a fixed order
                keys = (words, *sorted(self._synonyms.get(words, ())))
                domain = next((enum_domains[k] for k in keys if k in enum_domains), ())
                if domain:
                    add(
                        f"{attr.path}__domain",
                        "format",
                        InSet(
                            FieldRef(fname, attr.path),
                            tuple(Lit(v) for v in domain),
                        ),
                    )
            if attr.type.tag in ("integer", "float") and any(
                word in _AMOUNT_WORDS for word in words
            ):
                add(
                    f"{attr.path}__positive",
                    "common_sense",
                    Cmp(">", FieldRef(fname, attr.path), Lit(0)),
                )
        # sessionId is a string id field too
        add_id_format("sessionId")
        return out

    # refinement

    def refine_invariant(self, conversation: Conversation, request: RefineRequest) -> str:
        from .dsl import And, Invariant, parse_invariant, print_expr, print_invariant

        conversation.append("user", render_refine_message(request))
        inv = parse_invariant(request.invariant_text)
        if not isinstance(inv.body, And):
            conversation.append("assistant", "```invariant\n```")
            return ""
        failing: set[str] = set()
        for sample in request.samples:
            failing.update(sample.failing_clauses)
        kept = [part for part in inv.body.parts if print_expr(part) not in failing]
        if not kept or len(kept) == len(inv.body.parts):
            conversation.append("assistant", "```invariant\n```")
            return ""
        body = kept[0] if len(kept) == 1 else And(tuple(kept))
        text = print_invariant(Invariant(inv.id, inv.focal, inv.category, body))
        conversation.append("assistant", f"```invariant\n{text}\n```")
        return text
