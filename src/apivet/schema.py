"""Schema model: semantic types, attributes, entity types and bundles.

Three kinds of entity share one attribute vocabulary: API endpoints, database
tables and the per-session environment. Every command reads a bundle through
this module; the builders that make entities from call signatures, CREATE
TABLE statements and environment descriptors live in `sources`, which only
`schema parse` and `benchgen` load.
"""

from __future__ import annotations

import re

from .errors import SchemaError
from .fileio import read_json, write_json
from .values import Record

TYPE_TAGS = (
    "string",
    "integer",
    "float",
    "boolean",
    "timestamp-millis",
    "enum",
    "document",
)

API = "API"
TABLE = "TABLE"
ENV = "ENV"
ENTITY_KINDS = (API, TABLE, ENV)

_SEGMENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class SemanticType(Record):
    __slots__ = ("tag", "enum_domain")

    def __init__(self, tag: str, enum_domain: tuple[str, ...] | None = None):
        if tag not in TYPE_TAGS:
            raise SchemaError(f"unknown type tag {tag!r}")
        if tag == "enum":
            if not enum_domain:
                raise SchemaError("enum type requires a non-empty domain")
            if len(set(enum_domain)) != len(enum_domain):
                raise SchemaError("enum domain values must be unique")
        elif enum_domain is not None:
            raise SchemaError(f"type {tag!r} cannot carry an enum domain")
        self.tag = tag
        self.enum_domain = enum_domain


STRING = SemanticType("string")
INTEGER = SemanticType("integer")
FLOAT = SemanticType("float")
BOOLEAN = SemanticType("boolean")
TIMESTAMP = SemanticType("timestamp-millis")
DOCUMENT = SemanticType("document")


class Attribute(Record):
    __slots__ = ("path", "type", "nullable")

    def __init__(self, path: str, type: SemanticType, nullable: bool = True):
        for seg in path.split("."):
            if not _SEGMENT_RE.match(seg):
                raise SchemaError(f"invalid path segment {seg!r} in {path!r}")
        self.path = path
        self.type = type
        self.nullable = nullable

    @property
    def segments(self) -> tuple[str, ...]:
        return tuple(self.path.split("."))

    @property
    def last_segment(self) -> str:
        return self.path.rsplit(".", 1)[-1]


class EntityType(Record):
    __slots__ = ("name", "kind", "attributes", "primary_key", "_by_path")

    def __init__(
        self,
        name: str,
        kind: str,
        attributes: list[Attribute],
        primary_key: tuple[str, ...] | None = None,
    ):
        self.name = name
        self.kind = kind
        self.attributes = attributes
        self.primary_key = primary_key
        self._by_path: dict[str, Attribute] = {}
        if not _SEGMENT_RE.match(self.name):
            raise SchemaError(f"invalid entity name {self.name!r}")
        if self.kind not in ENTITY_KINDS:
            raise SchemaError(f"unknown entity kind {self.kind!r}")
        for attr in self.attributes:
            if attr.path in self._by_path:
                raise SchemaError(
                    f"duplicate attribute path {attr.path!r} on {self.name!r}"
                )
            self._by_path[attr.path] = attr
        if self.kind == API:
            self._require("time", "timestamp-millis")
            self._require("sessionId", "string")
        if self.kind == ENV:
            self._require("sessionId", "string")
        if self.primary_key is not None:
            if self.kind != TABLE:
                raise SchemaError("only TABLE entities carry a primary key")
            if not self.primary_key:
                raise SchemaError(f"empty primary key on {self.name!r}")
            for path in self.primary_key:
                if path not in self._by_path:
                    raise SchemaError(
                        f"primary key column {path!r} not defined on {self.name!r}"
                    )

    def _require(self, path: str, tag: str) -> None:
        attr = self._by_path.get(path)
        if attr is None or attr.type.tag != tag:
            raise SchemaError(
                f"{self.kind} entity {self.name!r} requires attribute "
                f"{path!r} of type {tag}"
            )

    def attribute(self, path: str) -> Attribute | None:
        return self._by_path.get(path)

    def has_attribute(self, path: str) -> bool:
        return path in self._by_path


# --- bundles ---------------------------------------------------------------


class SchemaBundle(Record):
    __slots__ = ("entities", "_by_name")

    def __init__(self, entities: list[EntityType]):
        self.entities = entities
        self._by_name: dict[str, EntityType] = {}
        for entity in entities:
            if entity.name in self._by_name:
                raise SchemaError(f"duplicate entity name {entity.name!r}")
            self._by_name[entity.name] = entity

    def entity(self, name: str) -> EntityType:
        ent = self._by_name.get(name)
        if ent is None:
            raise SchemaError(f"unknown entity {name!r}")
        return ent

    def of_kind(self, kind: str) -> list[EntityType]:
        return [e for e in self.entities if e.kind == kind]

    def require_inference_ready(self) -> None:
        if not self.of_kind(API) or not self.of_kind(TABLE):
            raise SchemaError(
                "inference requires at least one API entity and one TABLE entity"
            )


def merge_bundle(entities: list[EntityType]) -> SchemaBundle:
    return SchemaBundle(list(entities))


def bundle_to_dict(bundle: SchemaBundle) -> dict:
    entities = []
    for ent in bundle.entities:
        attrs = []
        for attr in ent.attributes:
            item: dict = {"path": attr.path, "type": attr.type.tag}
            if attr.type.enum_domain is not None:
                item["enum_domain"] = list(attr.type.enum_domain)
            item["nullable"] = attr.nullable
            attrs.append(item)
        record: dict = {"name": ent.name, "kind": ent.kind, "attributes": attrs}
        if ent.primary_key is not None:
            record["primary_key"] = list(ent.primary_key)
        entities.append(record)
    return {"entities": entities}


def bundle_from_dict(data: dict) -> SchemaBundle:
    if not isinstance(data, dict) or "entities" not in data:
        raise SchemaError("bundle descriptor requires an 'entities' list")
    entities = []
    for record in data["entities"]:
        attrs = []
        for item in record.get("attributes", []):
            domain = item.get("enum_domain")
            sem = SemanticType(item["type"], tuple(domain) if domain else None)
            attrs.append(
                Attribute(item["path"], sem, nullable=item.get("nullable", True))
            )
        pk = record.get("primary_key")
        entities.append(
            EntityType(
                name=record["name"],
                kind=record["kind"],
                attributes=attrs,
                primary_key=tuple(pk) if pk else None,
            )
        )
    return SchemaBundle(entities)


def save_bundle(bundle: SchemaBundle, path: str) -> None:
    write_json(bundle_to_dict(bundle), path)


def load_bundle(path: str) -> SchemaBundle:
    return bundle_from_dict(read_json(path))
