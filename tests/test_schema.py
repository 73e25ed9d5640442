"""Schema model: flattening, DDL parsing, env descriptors, bundles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apivet.errors import DdlParseError, SchemaError
from apivet.schema import (
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
    bundle_from_dict,
    bundle_to_dict,
    load_bundle,
    merge_bundle,
    save_bundle,
)
from apivet.sources import flatten_api_signature, load_env_descriptor, parse_create_table


def flatten_oracle(arguments, response, depth_limit=3):
    """Independent recursive walk over annotation documents.

    Returns [(path, tag)] in traversal order: dicts past the limit and all
    arrays collapse to document; the two ambient attributes come last.
    """
    out = []

    def walk(node, path, depth):
        if isinstance(node, dict):
            if not node or depth >= depth_limit:
                out.append((path, "document"))
                return
            for key, child in node.items():
                walk(child, f"{path}.{key}", depth + 1)
        elif isinstance(node, list):
            out.append((path, "document"))
        else:
            alias = {
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
            }[node.strip().lower()]
            out.append((path, alias))

    for root, doc in (("arguments", arguments), ("response", response)):
        for key, child in doc.items():
            walk(child, f"{root}.{key}", 1)
    out.append(("time", "timestamp-millis"))
    out.append(("sessionId", "string"))
    return out


def shape_of(entity):
    return [(a.path, a.type.tag) for a in entity.attributes]


class TestFlatten:
    def test_nested_order_signature(self):
        response = {
            "order": {
                "id": "string",
                "price": "float",
                "meta": {"note": {"lang": "string"}},
            },
            "items": ["string"],
        }
        entity = flatten_api_signature(
            "queryOrder",
            arguments={"loginId": "string"},
            response=response,
            depth_limit=3,
        )
        assert entity.name == "queryOrder"
        assert entity.kind == API
        expected = [
            ("arguments.loginId", "string"),
            ("response.order.id", "string"),
            ("response.order.price", "float"),
            ("response.order.meta.note", "document"),  # dict at the depth limit
            ("response.items", "document"),  # arrays always collapse
            ("time", "timestamp-millis"),
            ("sessionId", "string"),
        ]
        assert shape_of(entity) == expected
        assert shape_of(entity) == flatten_oracle({"loginId": "string"}, response)

    def test_empty_signature_keeps_ambient_attributes(self):
        entity = flatten_api_signature("ping", {}, {})
        assert shape_of(entity) == [
            ("time", "timestamp-millis"),
            ("sessionId", "string"),
        ]

    def test_depth_limit_one_collapses_every_subdocument(self):
        entity = flatten_api_signature(
            "f", {"a": {"b": "string"}, "x": "int"}, {}, depth_limit=1
        )
        assert shape_of(entity) == [
            ("arguments.a", "document"),
            ("arguments.x", "integer"),
            ("time", "timestamp-millis"),
            ("sessionId", "string"),
        ]

    def test_four_levels_under_default_limit(self):
        entity = flatten_api_signature(
            "f", {"a": {"b": {"c": {"d": "string"}}}}, {}
        )
        assert entity.attribute("arguments.a.b.c").type == DOCUMENT
        assert not entity.has_attribute("arguments.a.b.c.d")

    def test_empty_subdocument_is_a_document_leaf(self):
        entity = flatten_api_signature("f", {"blob": {}}, {})
        assert entity.attribute("arguments.blob").type == DOCUMENT

    def test_type_aliases(self):
        entity = flatten_api_signature(
            "f",
            {"a": "str", "b": "long", "c": "double", "d": "bool", "e": "datetime"},
            {},
        )
        tags = [a.type.tag for a in entity.attributes[:-2]]
        assert tags == ["string", "integer", "float", "boolean", "timestamp-millis"]

    def test_bad_annotation_rejected(self):
        with pytest.raises(SchemaError):
            flatten_api_signature("f", {"a": "varchar2"}, {})
        with pytest.raises(SchemaError):
            flatten_api_signature("f", {"a": 42}, {})

    def test_bad_depth_limit_rejected(self):
        with pytest.raises(SchemaError):
            flatten_api_signature("f", {}, {}, depth_limit=0)

    def test_non_document_payload_rejected(self):
        with pytest.raises(SchemaError):
            flatten_api_signature("f", ["string"], {})

    @settings(max_examples=60, deadline=None)
    @given(
        st.recursive(
            st.sampled_from(["string", "int", "float", "bool"]),
            lambda leaf: st.dictionaries(
                st.from_regex(r"[a-z][a-z0-9]{0,5}", fullmatch=True),
                leaf,
                max_size=3,
            ),
            max_leaves=12,
        ).filter(lambda doc: isinstance(doc, dict)),
        st.integers(min_value=1, max_value=4),
    )
    def test_flatten_matches_oracle(self, arguments, depth_limit):
        entity = flatten_api_signature("f", arguments, {}, depth_limit=depth_limit)
        assert shape_of(entity) == flatten_oracle(arguments, {}, depth_limit)


class TestDdl:
    DDL = """
    -- ticket shop tables
    CREATE TABLE users (
      id VARCHAR(64) PRIMARY KEY,
      name TEXT
    );
    CREATE TABLE orders (
      id VARCHAR(64),
      userId VARCHAR(64),
      status ENUM('unpaid', 'paid', 'cancelled'),
      price DOUBLE,
      PRIMARY KEY (id)
    );
    """

    def test_two_tables(self):
        users, orders = parse_create_table(self.DDL)
        assert users.name == "users" and users.kind == TABLE
        assert users.primary_key == ("id",)
        assert users.attribute("id").nullable is False
        assert users.attribute("name").type == STRING

        assert orders.primary_key == ("id",)
        status = orders.attribute("status")
        assert status.type.tag == "enum"
        assert status.type.enum_domain == ("unpaid", "paid", "cancelled")
        assert orders.attribute("price").type == FLOAT
        assert orders.attribute("userId").nullable is True

    def test_numeric_and_boolean_columns(self):
        (t,) = parse_create_table(
            "CREATE TABLE t (n BIGINT, f FLOAT, b BOOLEAN, tiny TINYINT(1), "
            "ts DATETIME, PRIMARY KEY (n));"
        )
        assert t.attribute("n").type == INTEGER
        assert t.attribute("f").type == FLOAT
        assert t.attribute("b").type == BOOLEAN
        assert t.attribute("tiny").type == BOOLEAN
        assert t.attribute("ts").type == TIMESTAMP

    def test_backquoted_identifiers(self):
        (t,) = parse_create_table("CREATE TABLE `weird` (`col` TEXT);")
        assert t.name == "weird"
        assert t.has_attribute("col")

    def test_enum_quoting_with_escapes(self):
        (t,) = parse_create_table("CREATE TABLE t (s ENUM('a\\'b', 'c'));")
        assert t.attribute("s").type.enum_domain == ("a'b", "c")

    def test_unsupported_type_rejected(self):
        with pytest.raises(DdlParseError):
            parse_create_table("CREATE TABLE t (b BLOB);")

    def test_wide_tinyint_rejected(self):
        with pytest.raises(DdlParseError):
            parse_create_table("CREATE TABLE t (x TINYINT(4));")

    def test_enum_without_values_rejected(self):
        with pytest.raises(DdlParseError):
            parse_create_table("CREATE TABLE t (x ENUM);")

    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            parse_create_table("CREATE TABLE t (x TEXT, x TEXT);")

    def test_garbage_rejected(self):
        with pytest.raises(DdlParseError):
            parse_create_table("DROP TABLE users;")


class TestEnvDescriptor:
    def test_basic(self):
        env = load_env_descriptor(
            {
                "sessionId": "string",
                "userId": "string",
                "userName": "string",
                "userRoles": "document",
            }
        )
        assert env.kind == ENV
        assert env.name == "Env"
        assert [a.path for a in env.attributes] == [
            "sessionId",
            "userId",
            "userName",
            "userRoles",
        ]

    def test_missing_session_id_rejected(self):
        with pytest.raises(SchemaError):
            load_env_descriptor({"userId": "string"})

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            load_env_descriptor({})


class TestEntityRules:
    def test_api_requires_ambient_attributes(self):
        with pytest.raises(SchemaError):
            EntityType(name="f", kind=API, attributes=[Attribute("x", STRING)])

    def test_primary_key_must_exist(self):
        with pytest.raises(SchemaError):
            EntityType(
                name="t",
                kind=TABLE,
                attributes=[Attribute("id", STRING)],
                primary_key=("missing",),
            )

    def test_primary_key_only_on_tables(self):
        with pytest.raises(SchemaError):
            EntityType(
                name="e",
                kind=ENV,
                attributes=[Attribute("sessionId", STRING)],
                primary_key=("sessionId",),
            )

    def test_enum_domain_validation(self):
        with pytest.raises(SchemaError):
            SemanticType("enum")
        with pytest.raises(SchemaError):
            SemanticType("enum", ("a", "a"))
        with pytest.raises(SchemaError):
            SemanticType("string", ("a",))


class TestBundle:
    def test_merge_lookup_and_roundtrip(self, tmp_path):
        api = flatten_api_signature("hello", {"x": "string"}, {})
        (table,) = parse_create_table("CREATE TABLE t (id TEXT PRIMARY KEY);")
        env = load_env_descriptor({"sessionId": "string", "userId": "string"})
        bundle = merge_bundle([api, table, env])
        assert bundle.entity("hello").name == "hello"
        assert bundle.entity("t").kind == TABLE
        assert [e.name for e in bundle.of_kind(API)] == ["hello"]

        path = tmp_path / "bundle.json"
        save_bundle(bundle, path)
        again = load_bundle(path)
        assert bundle_to_dict(again) == bundle_to_dict(bundle)
        restored = again.entity("t")
        assert restored.primary_key == ("id",)
        assert restored.attribute("id").nullable is False

    def test_duplicate_entity_rejected(self):
        a = flatten_api_signature("f", {}, {})
        b = flatten_api_signature("f", {"x": "string"}, {})
        with pytest.raises(SchemaError):
            merge_bundle([a, b])

    def test_dict_roundtrip_preserves_enum(self, shop_bundle):
        data = bundle_to_dict(shop_bundle)
        again = bundle_from_dict(data)
        status = again.entity("orders").attribute("status")
        assert status.type.enum_domain == ("unpaid", "paid", "cancelled")
