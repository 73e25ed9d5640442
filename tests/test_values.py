"""Scalar coercion, equality, value keys, and path navigation."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from apivet.values import (
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
