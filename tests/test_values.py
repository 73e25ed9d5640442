"""Scalar coercion, equality, value keys, path navigation, and records."""

import importlib
import inspect
import pkgutil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import apivet
from apivet import config, dsl, hmm, joins, relations, schema, seqmodel
from apivet.dsl import And, BoolConst, Cmp, FieldRef, Lit, Or
from apivet.schema import STRING, Attribute, EntityType, SemanticType
from apivet.values import (
    Record,
    canonical_json,
    coerce_scalar,
    get_path,
    value_key,
)

from oracles import values_equal

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**64),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
)


class TestEquality:
    """value_key is the package's one equality rule: equal keys, equal values."""

    def test_null_never_matches(self):
        assert value_key(None) is None
        assert value_key(0) is not None
        assert value_key("") is not None

    def test_numeric_cross_type(self):
        assert value_key(1) == value_key(1.0)
        assert value_key(1.0) in {value_key(1)}
        assert value_key(0.5) == value_key(0.5)
        assert value_key(1) != value_key(2)

    def test_bool_is_not_a_number(self):
        assert value_key(True) != value_key(1)
        assert value_key(False) != value_key(0)
        assert value_key(True) == value_key(True)

    def test_strings(self):
        assert value_key("a") == value_key("a")
        assert value_key("1") != value_key(1)

    @settings(max_examples=200, deadline=None)
    @given(scalars, scalars)
    @example(2**60, 2**60 + 1)
    @example(2**60 + 1, float(2**60))
    @example(2**60, float(2**60))
    def test_value_key_partitions_like_values_equal(self, a, b):
        ka, kb = value_key(a), value_key(b)
        if a is None or b is None:
            assert not values_equal(a, b)
            if a is None:
                assert ka is None
        else:
            assert values_equal(a, b) == (ka == kb)
            if ka == kb:
                assert hash(ka) == hash(kb)

    def test_document_key_is_order_free(self):
        assert value_key({"a": 1, "b": 2}) == value_key({"b": 2, "a": 1})
        assert value_key([1, 2]) != value_key([2, 1])


class TestCoerce:
    def test_none_passes_through(self):
        assert coerce_scalar(None, "integer") == (None, False)

    def test_document_tag_canonicalizes(self):
        value, mismatch = coerce_scalar({"b": 1, "a": [2]}, "document")
        assert value == '{"a":[2],"b":1}'
        assert not mismatch

    def test_bool_never_crosses_types(self):
        for tag in ("string", "integer", "float", "timestamp-millis"):
            assert coerce_scalar(True, tag) == (None, True)
        assert coerce_scalar(True, "boolean") == (True, False)
        assert coerce_scalar("yes", "boolean") == (None, True)

    def test_signed_digit_strings(self):
        assert coerce_scalar("-7", "integer") == (-7, False)
        assert coerce_scalar("+7", "integer") == (7, False)
        assert coerce_scalar("7.5", "integer") == (None, True)

    def test_enum_behaves_like_string(self):
        assert coerce_scalar("paid", "enum") == ("paid", False)
        assert coerce_scalar(3, "enum") == ("3", False)

    @settings(max_examples=150, deadline=None)
    @given(scalars, st.sampled_from(["string", "integer", "float", "boolean", "enum"]))
    def test_coercion_is_idempotent(self, value, tag):
        out, mismatch = coerce_scalar(value, tag)
        if mismatch:
            assert out is None
        else:
            again, again_mismatch = coerce_scalar(out, tag)
            assert not again_mismatch
            assert (again is None and out is None) or values_equal(again, out)


class TestPaths:
    def test_get_path(self):
        doc = {"a": {"b": {"c": 1}}, "x": None}
        assert get_path(doc, ("a", "b", "c")) == (True, 1)
        assert get_path(doc, ("a", "b")) == (True, {"c": 1})
        assert get_path(doc, ("x",)) == (True, None)
        assert get_path(doc, ("missing",)) == (False, None)
        assert get_path(doc, ("a", "b", "c", "d")) == (False, None)

    def test_canonical_json_is_deterministic(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


# every record class of the package, once each of its modules is loaded
for module in pkgutil.iter_modules(apivet.__path__):
    importlib.import_module(f"apivet.{module.name}")
RECORDS = sorted(
    (cls for cls in Record.__subclasses__() if cls.__module__.startswith("apivet.")),
    key=lambda cls: (cls.__module__, cls.__name__),
)


def users_table(attributes=None):
    return EntityType("users", "TABLE", attributes or [Attribute("id", STRING)], ("id",))


def a_link(**changes):
    fields = {"kind": "API_DB", "focal_entity": "payOrder", "focal_attr": "arguments.orderId",
              "target_entity": "orders", "target_attr": "id", "delta_ms": None,
              "score": 1.0, "provenance": "value_overlap"}
    return relations.Relationship(**{**fields, **changes})


# constructors that check or derive from their fields need real values
VALID_FIELDS = {
    config.ProviderConfig: lambda: {"endpoint_url": "https://example.invalid/v1/chat",
                                    "model_name": "m", "api_key_env_var": "KEY",
                                    "timeout_ms": 1000, "retries": 0},
    config.PipelineConfig: lambda: {"min_value_overlap": 0.5, "min_sequence_score": 0.1,
                                    "min_env_coverage": 0.9, "delta_ms": 10,
                                    "max_refine_rounds": 1, "violation_samples": 2,
                                    "sequence_model": "hmm", "markov_alpha": 0.5,
                                    "hmm_states": 2, "hmm_seed": 3, "mode": "strict",
                                    "proposer": "stub", "synonyms": [["a", "b"]],
                                    "provider": None},
    schema.SemanticType: lambda: {"tag": "enum", "enum_domain": ("a", "b")},
    schema.Attribute: lambda: {"path": "arguments.id", "type": STRING, "nullable": False},
    schema.EntityType: lambda: {"name": "users", "kind": "TABLE",
                                "attributes": [Attribute("id", STRING)], "primary_key": ("id",)},
    schema.SchemaBundle: lambda: {"entities": [users_table()]},
    relations.Relationship: lambda: {"kind": "API_ENV", "focal_entity": "login",
                                     "focal_attr": None, "target_entity": "Env",
                                     "target_attr": None, "delta_ms": 5, "score": 0.5,
                                     "provenance": "env_coverage"},
    seqmodel.MarkovModel: lambda: {"alphabet": ["<START>", "a"], "alpha": 1.0,
                                   "counts": [[0.0, 1.0], [0.0, 0.0]]},
    hmm.HmmModel: lambda: {"alphabet": ["a"], "pi": [1.0], "trans": [[1.0]], "emit": [[1.0]],
                           "log_likelihoods": [-1.0]},
}


class TestRecords:
    """Records behave as the dataclasses they replace: keyword construction,
    == by class and fields, and hash and repr from the fields alone."""

    def test_every_record_class_is_covered(self):
        assert {cls.__name__ for cls in RECORDS} >= {
            "LogEvent", "EnvRecord", "RowEvent", "ViolationRecord", "JoinedGroup", "Lit",
        }
        assert set(VALID_FIELDS) <= set(RECORDS)

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
    def test_keyword_construction_and_equality_by_fields(self, cls):
        make = VALID_FIELDS.get(cls)
        fields = make() if make else {
            name: f"{cls.__name__}.{name}" for name in inspect.signature(cls).parameters
        }
        record = cls(**fields)
        assert all(getattr(record, name) is value for name, value in fields.items())
        assert record == cls(**fields) and not record != cls(**fields)
        if make is None:  # any field that differs makes records differ
            for name in fields:
                assert record != cls(**{**fields, name: "other"})

    def test_equality_needs_the_same_class(self):
        # tuples of the same length would compare equal here
        assert Lit(True) != BoolConst(True)
        assert And((Lit(1),)) != Or((Lit(1),))
        assert Lit(1) != (1,)
        assert Cmp("==", Lit(1), Lit(2)) == Cmp("==", Lit(1), Lit(2))

    @pytest.mark.parametrize("make", [
        lambda: Lit("x"),
        lambda: FieldRef("orders", "id"),
        lambda: BoolConst(False),
        lambda: dsl.Not(Lit(1)),
        lambda: And((Lit(1), BoolConst(True))),
        lambda: Or((Lit(1), BoolConst(True))),
        lambda: dsl.Quant(True, "orders", Cmp("==", FieldRef("orders", "id"), Lit("o1"))),
        lambda: Cmp("<", FieldRef("f", "a"), Lit(2.5)),
        lambda: dsl.InSet(FieldRef("f", "a"), (Lit("a"), Lit("b"))),
        lambda: dsl.Match(FieldRef("f", "a"), "[a-z]+"),
        lambda: dsl.NullCheck(FieldRef("f", "a"), True),
        lambda: a_link(),
        lambda: SemanticType("enum", ("a", "b")),
        lambda: Attribute("id", STRING),
        # an entity is hashable as far as its fields are: here a tuple of attributes
        lambda: joins.Binding("users", a_link(), users_table((Attribute("id", STRING),))),
    ], ids=["Lit", "FieldRef", "BoolConst", "Not", "And", "Or", "Quant", "Cmp", "InSet",
            "Match", "NullCheck", "Relationship", "SemanticType", "Attribute", "Binding"])
    def test_formerly_frozen_records_hash_by_fields(self, make):
        a, b = make(), make()
        assert a is not b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_derived_state_stays_out_of_equality_and_repr(self):
        entity, twin = users_table(), users_table()
        entity._by_path.clear()
        assert entity == twin and "_by_path" not in repr(entity)
        bundle, twin = schema.SchemaBundle([users_table()]), schema.SchemaBundle([users_table()])
        bundle._by_name.clear()
        assert bundle == twin and "_by_name" not in repr(bundle)
        fields = VALID_FIELDS[seqmodel.MarkovModel]()
        model, twin = seqmodel.MarkovModel(**fields), seqmodel.MarkovModel(**fields)
        model.transition, model._index = [], {}
        assert model == twin
        assert repr(model) == ("MarkovModel(alphabet=['<START>', 'a'], alpha=1.0, "
                               "counts=[[0.0, 1.0], [0.0, 0.0]])")
        fields = VALID_FIELDS[hmm.HmmModel]()
        model, twin = hmm.HmmModel(**fields), hmm.HmmModel(**fields)
        model._index = {}
        assert model == twin and "_index" not in repr(model)

    def test_relationship_repr_is_the_text_inference_logs(self):
        # `relations infer -v` logs each rejected link with this text
        assert repr(a_link(score=None, provenance="proposed")) == (
            "Relationship(kind='API_DB', focal_entity='payOrder', "
            "focal_attr='arguments.orderId', target_entity='orders', target_attr='id', "
            "delta_ms=None, score=None, provenance='proposed')"
        )
