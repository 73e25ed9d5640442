"""Schema model: entity types, signature flattening, DDL parsing, bundles.

Three kinds of entity share one attribute vocabulary: API endpoints flattened
from nested call signatures, database tables parsed from CREATE TABLE
statements, and the per-session environment descriptor.
"""

from __future__ import annotations

import re

from .errors import DdlParseError, SchemaError
from .fileio import read_json, write_json
from .lexer import Cursor, Token
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

# Accepted spellings for leaf type annotations in signature documents.
_TYPE_ALIASES = {
    "string": "string",
    "str": "string",
    "int": "integer",
    "integer": "integer",
    "long": "integer",
    "float": "float",
    "double": "float",
    "number": "float",
    "bool": "boolean",
    "boolean": "boolean",
    "timestamp": "timestamp-millis",
    "timestamp-millis": "timestamp-millis",
    "datetime": "timestamp-millis",
    "document": "document",
}


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


def _resolve_type_name(raw: object, path: str) -> SemanticType:
    if isinstance(raw, str):
        tag = _TYPE_ALIASES.get(raw.strip().lower())
        if tag is not None:
            return SemanticType(tag)
    raise SchemaError(f"invalid type annotation {raw!r} at {path!r}")


def flatten_api_signature(
    name: str,
    arguments: dict,
    response: dict,
    depth_limit: int = 3,
) -> EntityType:
    """Flatten a nested call signature into one API entity.

    Leaves within depth_limit become typed attributes named by their dot
    path; subtrees at the limit collapse to a single document attribute, as
    do arrays. The ambient time and sessionId attributes are appended last.
    """
    if depth_limit < 1:
        raise SchemaError("depth_limit must be >= 1")
    attrs: list[Attribute] = []

    def walk(node: object, path: str, depth: int) -> None:
        if isinstance(node, dict):
            if depth >= depth_limit and node:
                attrs.append(Attribute(path, DOCUMENT))
                return
            if not node:
                attrs.append(Attribute(path, DOCUMENT))
                return
            for key, child in node.items():
                walk(child, f"{path}.{key}", depth + 1)
        elif isinstance(node, list):
            attrs.append(Attribute(path, DOCUMENT))
        else:
            attrs.append(Attribute(path, _resolve_type_name(node, path)))

    for root, doc in (("arguments", arguments), ("response", response)):
        if not isinstance(doc, dict):
            raise SchemaError(f"{root} of {name!r} must be a document")
        for key, child in doc.items():
            walk(child, f"{root}.{key}", 1)

    attrs.append(Attribute("time", TIMESTAMP))
    attrs.append(Attribute("sessionId", STRING))
    return EntityType(name=name, kind=API, attributes=attrs)


def load_env_descriptor(descriptor: dict, name: str = "Env") -> EntityType:
    """Build the ENV entity from a flat {field: type name} descriptor."""
    if not isinstance(descriptor, dict) or not descriptor:
        raise SchemaError("environment descriptor must be a non-empty document")
    attrs = [
        Attribute(path, _resolve_type_name(raw, path))
        for path, raw in descriptor.items()
    ]
    if not any(a.path == "sessionId" for a in attrs):
        raise SchemaError("environment descriptor requires a sessionId field")
    return EntityType(name=name, kind=ENV, attributes=attrs)


# --- DDL subset ------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*)
  | (?P<string>'(?:[^'\\]|\\.)*')
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*|`[^`]+`)
  | (?P<number>[0-9]+)
  | (?P<punct>[(),;])
    """,
    re.VERBOSE,
)


class _DdlParser(Cursor):
    pattern = _TOKEN_RE
    error_class = DdlParseError

    def next(self, what: str) -> Token:
        tok = self.peek()
        if tok is None:
            raise self.error(f"expected {what}")
        self.pos += 1
        return tok

    def expect_word(self, *words: str) -> None:
        if not self.at_word(*words):
            raise self.error(f"expected {' or '.join(words)}")
        self.pos += 1

    def identifier(self) -> str:
        return self.take("word", what="identifier").text.strip("`")

    def at_word(self, *words: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "word" and tok.text.upper() in words

    def parse_statements(self) -> list[EntityType]:
        entities = []
        while self.peek() is not None:
            entities.append(self.parse_create_table())
        return entities

    def parse_create_table(self) -> EntityType:
        self.expect_word("CREATE")
        self.expect_word("TABLE")
        name = self.identifier()
        self.take("punct", "(")
        columns: list[Attribute] = []
        seen: set[str] = set()
        pk: list[str] | None = None
        while True:
            if self.at_word("PRIMARY"):
                self.pos += 1
                self.expect_word("KEY")
                self.take("punct", "(")
                cols = [self.identifier()]
                while self.accept("punct", ","):
                    cols.append(self.identifier())
                self.take("punct", ")")
                if pk is not None:
                    raise self.error("duplicate PRIMARY KEY clause", got=False)
                pk = cols
            else:
                col, col_pk = self.parse_column()
                if col.path in seen:
                    raise SchemaError(f"duplicate column {col.path!r} in {name!r}")
                seen.add(col.path)
                columns.append(col)
                if col_pk:
                    if pk is not None:
                        raise self.error("duplicate PRIMARY KEY clause", got=False)
                    pk = [col.path]
            if self.accept("punct", ")"):
                break
            self.take("punct", ",", what="',' or ')'")
        self.take("punct", ";")
        attrs = columns
        if pk is not None:
            attrs = [
                Attribute(a.path, a.type, nullable=a.path not in pk) for a in columns
            ]
        return EntityType(
            name=name,
            kind=TABLE,
            attributes=attrs,
            primary_key=tuple(pk) if pk else None,
        )

    def parse_column(self) -> tuple[Attribute, bool]:
        name = self.identifier()
        sem = self.parse_type(self.take("word", what="column type"))
        is_pk = self.at_word("PRIMARY")
        if is_pk:
            self.pos += 1
            self.expect_word("KEY")
        return Attribute(name, sem), is_pk

    def parse_type(self, tok: Token) -> SemanticType:
        upper = tok.text.upper()
        args = self.parse_type_args()
        if upper in ("VARCHAR", "TEXT"):
            return STRING
        if upper in ("INT", "BIGINT"):
            return INTEGER
        if upper in ("DECIMAL", "DOUBLE", "FLOAT"):
            return FLOAT
        if upper in ("DATETIME", "TIMESTAMP"):
            return TIMESTAMP
        if upper == "BOOLEAN":
            return BOOLEAN
        if upper == "TINYINT":
            if args == ["1"]:
                return BOOLEAN
            raise DdlParseError(
                "only TINYINT(1) is supported", tok.line, tok.column
            )
        if upper == "ENUM":
            if not args:
                raise DdlParseError("ENUM requires values", tok.line, tok.column)
            return SemanticType("enum", tuple(args))
        raise DdlParseError(f"unsupported column type {tok.text!r}", tok.line, tok.column)

    def parse_type_args(self) -> list[str]:
        args: list[str] = []
        if not self.accept("punct", "("):
            return args
        while True:
            tok = self.next("type argument")
            if tok.kind == "string":
                args.append(tok.text[1:-1].replace("\\'", "'"))
            elif tok.kind == "number":
                args.append(tok.text)
            else:
                raise DdlParseError(
                    f"unexpected type argument {tok.text!r}", tok.line, tok.column
                )
            if self.accept("punct", ")"):
                return args
            self.take("punct", ",", what="',' or ')'")


def parse_create_table(ddl_text: str) -> list[EntityType]:
    """Parse a fixed CREATE TABLE subset into TABLE entities."""
    return _DdlParser(ddl_text).parse_statements()


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
