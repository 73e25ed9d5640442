"""Relationship inference: propose by name affinity, keep what the data supports.

Candidates come from a proposer, and each is vetted once, in order: its focal
attribute must exist, then its target attribute, and then the observed
traffic must back it up. That last check depends on the target's kind: table
links need value overlap, call-to-call links need the sequence model to rate
the ordering as plausible, and environment links need the session join to
actually resolve. A rejected candidate is recorded with its reason, or raised
as an `InferenceError` in strict mode.

The data checks read the `joins.JoinStores` that generation and detection
join over, so every stage projects calls and keys values by one rule.
"""

from __future__ import annotations

import logging

from .errors import InferenceError, SchemaError
from .fileio import read_json, write_json
from .logstore import InstanceTable, env_before
from .schema import API, ENV, TABLE, SchemaBundle
from .values import Record, value_key

logger = logging.getLogger(__name__)

API_DB = "API_DB"
API_API = "API_API"
API_ENV = "API_ENV"

REL_KINDS = (API_DB, API_API, API_ENV)

_KIND_OF_TARGET = {TABLE: API_DB, API: API_API, ENV: API_ENV}
_TARGET_NOUN = {
    API_DB: "target column",
    API_API: "target attribute",
    API_ENV: "environment attribute",
}


class Relationship(Record):
    __slots__ = (
        "kind", "focal_entity", "focal_attr", "target_entity", "target_attr",
        "delta_ms", "score", "provenance",
    )

    def __init__(
        self,
        kind: str,
        focal_entity: str,
        focal_attr: str | None,
        target_entity: str,
        target_attr: str | None,
        delta_ms: int | None = None,
        score: float | None = None,
        provenance: str = "proposed",
    ):
        if kind not in REL_KINDS:
            raise ValueError(f"unknown relationship kind: {kind!r}")
        self.kind = kind
        self.focal_entity = focal_entity
        self.focal_attr = focal_attr
        self.target_entity = target_entity
        self.target_attr = target_attr
        self.delta_ms = delta_ms
        self.score = score
        self.provenance = provenance


class InferenceReport(Record):
    __slots__ = ("relationships", "proposed", "rejected")

    def __init__(
        self,
        relationships: list[Relationship],
        proposed: int = 0,
        rejected: list[tuple[Relationship, str]] | None = None,
    ):
        self.relationships = relationships
        self.proposed = proposed
        self.rejected = [] if rejected is None else rejected


def candidate_pairs(bundle: SchemaBundle):
    """Every (focal API, target) pair worth asking the proposer about."""
    apis = bundle.of_kind(API)
    targets = bundle.of_kind(TABLE) + bundle.of_kind(API) + bundle.of_kind(ENV)
    for focal in apis:
        for target in targets:
            if target.kind == API and target.name == focal.name:
                continue
            yield focal, target


# --- filters -----------------------------------------------------------------


def value_overlap(
    focal_table: InstanceTable,
    focal_attr: str,
    universe: set,
    min_overlap: float,
) -> tuple[bool, float]:
    """Fraction of non-null focal values whose value key is in `universe`."""
    total = 0
    hits = 0
    for _, row in focal_table.rows:
        value = row.get(focal_attr)
        if value is None:
            continue
        total += 1
        if value_key(value) in universe:
            hits += 1
    if total == 0:
        return False, 0.0
    ratio = hits / total
    return ratio >= min_overlap, ratio


def sequence_plausibility(
    model, target_api: str, focal_api: str, min_score: float
) -> tuple[bool, float]:
    """The target call must plausibly precede the focal call."""
    from .seqmodel import pair_score

    score = pair_score(model, target_api, focal_api)
    return score >= min_score, score


def env_coverage(
    focal_table: InstanceTable, env: tuple[dict, dict], min_coverage: float
) -> tuple[bool, float]:
    """Fraction of focal calls that join an environment record.

    `env` is JoinStores.env_index's shape; a call counts when env_before
    finds a record for its session before its time, the rule joins use.
    """
    total = 0
    hits = 0
    for _, row in focal_table.rows:
        total += 1
        if env_before(env, row.get("sessionId"), row["time"]) is not None:
            hits += 1
    if total == 0:
        return False, 0.0
    ratio = hits / total
    return ratio >= min_coverage, ratio


# --- inference ---------------------------------------------------------------


def infer_relationships(
    stores,
    proposer,
    seq_model,
    min_overlap: float = 0.9,
    min_sequence_score: float = 0.05,
    min_env_coverage: float = 0.99,
    delta_ms: int = 60000,
    mode: str = "lenient",
) -> InferenceReport:
    """Propose relationships for every candidate pair and filter each.

    `stores` is the joins.JoinStores of the training corpus and tables; a
    table column's universe is its `column_keys`, every value it held in
    any version.
    """
    bundle = stores.bundle
    bundle.require_inference_ready()

    report = InferenceReport(relationships=[])
    seen: set[Relationship] = set()

    def data_check(rel: Relationship) -> tuple[bool, float, str, str]:
        """(ok, score, provenance, rejection reason) of the target kind's check."""
        if rel.kind == API_API:
            ok, score = sequence_plausibility(
                seq_model, rel.target_entity, rel.focal_entity, min_sequence_score
            )
            return ok, score, "sequence_model", f"sequence score {score:.4f} below threshold"
        focal_rows = stores.instances(rel.focal_entity)
        if rel.kind == API_DB:
            universe = stores.column_keys(rel.target_entity, rel.target_attr)
            ok, score = value_overlap(focal_rows, rel.focal_attr, universe, min_overlap)
            return ok, score, "value_overlap", f"value overlap {score:.3f} below threshold"
        env = stores.env_index(rel.target_entity)
        ok, score = env_coverage(focal_rows, env, min_env_coverage)
        return ok, score, "env_coverage", f"environment coverage {score:.3f} below threshold"

    for focal, target in candidate_pairs(bundle):
        kind = _KIND_OF_TARGET[target.kind]
        candidates = proposer.propose_relationships(focal, target)
        report.proposed += len(candidates)
        for cand in candidates:
            rel = Relationship(
                kind=kind,
                focal_entity=focal.name,
                focal_attr=cand.from_attr,
                target_entity=target.name,
                target_attr=cand.to_attr,
                delta_ms=delta_ms if kind == API_API else None,
            )
            if not focal.has_attribute(cand.from_attr):
                reason = f"focal attribute {cand.from_attr!r} does not exist"
            # only a table link needs a target attribute; has_attribute(None) is False
            elif (cand.to_attr is not None or kind == API_DB) and not target.has_attribute(
                cand.to_attr
            ):
                reason = f"{_TARGET_NOUN[kind]} {cand.to_attr!r} does not exist"
            else:
                ok, score, provenance, reason = data_check(rel)
                if ok:
                    if rel not in seen:
                        seen.add(rel)
                        report.relationships.append(Relationship(
                            kind, rel.focal_entity, rel.focal_attr, rel.target_entity,
                            rel.target_attr, rel.delta_ms, score, provenance,
                        ))
                    continue
            if mode == "strict":
                raise InferenceError(
                    f"{kind} {focal.name}.{cand.from_attr} -> "
                    f"{target.name}.{cand.to_attr}: {reason}"
                )
            logger.info("rejected %s: %s", rel, reason)
            report.rejected.append((rel, reason))

    report.relationships.sort(
        key=lambda r: (
            r.focal_entity,
            REL_KINDS.index(r.kind),
            r.target_entity,
            r.focal_attr or "",
            r.target_attr or "",
        )
    )
    return report


# --- serialization -----------------------------------------------------------


def relationship_to_dict(rel: Relationship) -> dict:
    out = {
        "kind": rel.kind,
        "focal_entity": rel.focal_entity,
        "focal_attr": rel.focal_attr,
        "target_entity": rel.target_entity,
        "target_attr": rel.target_attr,
        "provenance": rel.provenance,
    }
    if rel.delta_ms is not None:
        out["delta_ms"] = rel.delta_ms
    if rel.score is not None:
        out["score"] = rel.score
    return out


def relationship_from_dict(data: dict) -> Relationship:
    """Read one saved relationship, rejecting wrong shapes with a ValueError."""
    rel = Relationship(
        kind=data["kind"],
        focal_entity=data["focal_entity"],
        focal_attr=data.get("focal_attr"),
        target_entity=data["target_entity"],
        target_attr=data.get("target_attr"),
        delta_ms=data.get("delta_ms"),
        score=data.get("score"),
        provenance=data.get("provenance", "proposed"),
    )
    for name in ("focal_entity", "target_entity"):
        value = getattr(rel, name)
        if not isinstance(value, str) or not value:
            raise ValueError(f"{name} must be a non-empty string, got {value!r}")
    for name in ("focal_attr", "target_attr"):
        value = getattr(rel, name)
        if value is not None and not isinstance(value, str):
            raise ValueError(f"{name} must be null or a string, got {value!r}")
    delta = rel.delta_ms
    if delta is not None and (
        not isinstance(delta, int) or isinstance(delta, bool) or delta < 1
    ):
        raise ValueError(f"delta_ms must be null or an int >= 1, got {delta!r}")
    return rel


def diagram_to_dict(bundle: SchemaBundle, relationships: list[Relationship]) -> dict:
    return {
        "entities": [entity.name for entity in bundle.entities],
        "relationships": [relationship_to_dict(rel) for rel in relationships],
    }


def save_relationships(relationships: list[Relationship], path) -> None:
    write_json([relationship_to_dict(rel) for rel in relationships], path)


def load_relationships(path) -> list[Relationship]:
    return [relationship_from_dict(item) for item in read_json(path)]


def admit_relationships(
    bundle: SchemaBundle, relationships: list[Relationship]
) -> list[Relationship]:
    """`relationships`, once each is known to join in `bundle`: its focal
    entity is an API, its target an entity of the kind its `kind` links to,
    each attribute it names, where not null, one its entity has, a table
    link names both, and no earlier relationship has its kind, entities and
    attributes. The first that is not is a SchemaError naming its position
    in the list."""
    first_at: dict[tuple, int] = {}
    for i, rel in enumerate(relationships):
        link = (rel.kind, rel.focal_entity, rel.focal_attr, rel.target_entity, rel.target_attr)
        try:
            focal = bundle.entity(rel.focal_entity)
            target = bundle.entity(rel.target_entity)
        except SchemaError as exc:
            raise SchemaError(f"relationship {i}: {exc}") from None
        if focal.kind != API:
            problem = f"focal entity {focal.name!r} is not an API"
        elif _KIND_OF_TARGET[target.kind] != rel.kind:
            problem = f"{rel.kind} link to {target.kind} entity {target.name!r}"
        elif rel.kind == API_DB and (rel.focal_attr is None or rel.target_attr is None):
            problem = "an API_DB link needs both a focal attribute and a target column"
        elif rel.focal_attr is not None and not focal.has_attribute(rel.focal_attr):
            problem = f"focal attribute {rel.focal_attr!r} does not exist on {focal.name!r}"
        elif rel.target_attr is not None and not target.has_attribute(rel.target_attr):
            problem = (
                f"{_TARGET_NOUN[rel.kind]} {rel.target_attr!r} does not exist "
                f"on {target.name!r}"
            )
        elif first_at.setdefault(link, i) != i:
            problem = f"the same link as relationship {first_at[link]}"
        else:
            continue
        raise SchemaError(f"relationship {i}: {problem}")
    return relationships
