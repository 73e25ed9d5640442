"""Bundle builders: entities from call signatures, DDL and env descriptors.

`flatten_api_signature` turns a nested call signature into an API entity,
`parse_create_table` reads a fixed CREATE TABLE subset into TABLE entities,
and `load_env_descriptor` builds the ENV entity from a flat descriptor. Only
`schema parse` and `benchgen` build a bundle, so only they load this module
and the shared tokenizer (`lexer`) it parses DDL with.
"""

from __future__ import annotations

import re

from .errors import DdlParseError, SchemaError
from .lexer import Cursor, Token
from .schema import (
    API,
    BOOLEAN,
    DOCUMENT,
    ENV,
    FLOAT,
    INTEGER,
    STRING,
    TABLE,
    TIMESTAMP,
    Attribute,
    EntityType,
    SemanticType,
)

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
