"""Invariant language: parsing, printing, evaluation, explanation."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apivet.dsl import (
    MAX_QUANTIFIER_DEPTH,
    And,
    BoolConst,
    Cmp,
    FieldRef,
    InSet,
    Invariant,
    Lit,
    Match,
    Not,
    NullCheck,
    Or,
    Quant,
    compile_invariant,
    evaluate,
    explain,
    parse_invariant,
    parse_invariants,
    print_invariant,
    quantified_names,
    read_invariant_file,
    write_invariant_file,
)
from apivet.errors import DslScopeError, DslSyntaxError, EvaluationError

from generators import FakeGroup, random_group, random_invariant


def group(focal=None, **bindings):
    return FakeGroup(log_id=0, focal=focal or {}, bindings=bindings)


class TestParse:
    def test_full_example(self):
        text = (
            'INVARIANT refund_paid ON refundOrder CATEGORY database '
            'WHERE EXISTS(orders: orders.status == "paid")'
        )
        inv = parse_invariant(text)
        assert inv == Invariant(
            id="refund_paid",
            focal="refundOrder",
            category="database",
            body=Quant(
                exists=True,
                name="orders",
                body=Cmp(
                    op="==",
                    left=FieldRef(root="orders", path="status"),
                    right=Lit("paid"),
                ),
            ),
        )

    def test_operators_and_literals(self):
        inv = parse_invariant(
            "INVARIANT x ON f CATEGORY format WHERE "
            'f.a >= -2.5 AND f.b IN [1, "two", TRUE] AND f.c IS NOT NULL '
            'OR NOT (f.d MATCHES "[a-z]+")'
        )
        # OR binds looser than AND
        assert isinstance(inv.body, Or)
        left, right = inv.body.parts
        assert isinstance(left, And) and len(left.parts) == 3
        assert isinstance(right, Not)
        assert left.parts[1].items == (Lit(1), Lit("two"), Lit(True))

    def test_comments_and_multiple_invariants(self):
        text = (
            "# leading comment\n"
            "INVARIANT a ON f CATEGORY format WHERE TRUE\n"
            "INVARIANT b ON f CATEGORY format WHERE FALSE # trailing\n"
        )
        invs = parse_invariants(text)
        assert [i.id for i in invs] == ["a", "b"]
        assert parse_invariants("  \n# nothing\n") == []

    def test_nested_quantifiers(self):
        inv = parse_invariant(
            "INVARIANT x ON f CATEGORY database WHERE "
            "FORALL(a: EXISTS(b: a.k == b.k))"
        )
        assert quantified_names(inv.body) == {"a", "b"}

    @pytest.mark.parametrize(
        "bad",
        [
            "INVARIANT ON f CATEGORY format WHERE TRUE",
            "INVARIANT x ON f WHERE TRUE",
            "INVARIANT x ON f CATEGORY format WHERE",
            "INVARIANT x ON f CATEGORY format WHERE f.a ==",
            "INVARIANT x ON f CATEGORY format WHERE f.a == 1 extra",
            "INVARIANT x ON f CATEGORY format WHERE EXISTS(a b.c == 1)",
            'INVARIANT x ON f CATEGORY format WHERE f.a IN []',
            'INVARIANT x ON f CATEGORY format WHERE f.a MATCHES "(unclosed"',
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(DslSyntaxError):
            parse_invariant(bad)

    def test_scope_errors(self):
        # free reference to a never-quantified entity
        with pytest.raises(DslScopeError):
            parse_invariant("INVARIANT x ON f CATEGORY format WHERE ghost.a == 1")
        # binding used outside its quantifier body
        with pytest.raises(DslScopeError):
            parse_invariant(
                "INVARIANT x ON f CATEGORY format WHERE "
                "EXISTS(a: a.k == 1) AND a.k == 2"
            )

    def test_unknown_category_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse_invariant("INVARIANT x ON f CATEGORY vibes WHERE TRUE")


class TestPrint:
    def test_canonical_text(self):
        text = (
            'INVARIANT refund_paid ON refundOrder CATEGORY database '
            'WHERE EXISTS(orders: orders.status == "paid")'
        )
        assert print_invariant(parse_invariant(text)) == text

    def test_or_inside_and_is_parenthesized(self):
        inv = Invariant(
            id="x",
            focal="f",
            category="format",
            body=And((Or((BoolConst(True), BoolConst(False))), BoolConst(True))),
        )
        printed = print_invariant(inv)
        assert "(TRUE OR FALSE) AND TRUE" in printed
        assert parse_invariant(printed).body == inv.body

    def test_roundtrip_500_random_invariants(self):
        rng = random.Random(2024)
        for _ in range(500):
            inv = random_invariant(rng)
            printed = print_invariant(inv)
            reparsed = parse_invariant(printed)
            assert reparsed == inv, printed
            assert print_invariant(reparsed) == printed

    @staticmethod
    def nest(ident, depth):
        body = "orders.a == 1"
        for _ in range(depth):
            body = f"FORALL(orders: {body})"
        return f"INVARIANT {ident} ON f CATEGORY database WHERE {body}"

    def test_a_file_nests_quantifiers_at_most_the_limit(self, tmp_path):
        path = tmp_path / "invariants.txt"
        path.write_text(self.nest("ok", MAX_QUANTIFIER_DEPTH) + "\n")
        assert [inv.id for inv in read_invariant_file(path)] == ["ok"]
        for depth in (MAX_QUANTIFIER_DEPTH + 1, 50):
            path.write_text(f"{self.nest('ok', 1)}\n\n{self.nest('deep', depth)}\n")
            started = time.perf_counter()
            with pytest.raises(DslSyntaxError) as err:
                read_invariant_file(path)
            assert time.perf_counter() - started < 1.0
            assert str(err.value) == (
                f"line 3, column 1: invariant 'deep' nests quantifiers {depth} deep, "
                f"more than {MAX_QUANTIFIER_DEPTH}"
            )
        # one candidate parses at any depth: refinement vets it with a reason
        assert parse_invariant(self.nest("deep", 50)).id == "deep"

    def test_file_roundtrip(self, tmp_path):
        rng = random.Random(7)
        invs = [random_invariant(rng, ident=f"inv_{i}") for i in range(40)]
        path = tmp_path / "invariants.txt"
        write_invariant_file(invs, path)
        assert read_invariant_file(path) == invs


class TestEvaluate:
    def test_quantifier_base_cases(self):
        exists = parse_invariant(
            "INVARIANT x ON f CATEGORY database WHERE EXISTS(rows: rows.a == 1)"
        )
        forall = parse_invariant(
            "INVARIANT x ON f CATEGORY database WHERE FORALL(rows: rows.a == 1)"
        )
        empty = group(rows=[])
        assert evaluate(exists, empty).passed is False
        assert evaluate(forall, empty).passed is True
        some = group(rows=[{"a": 2}, {"a": 1}])
        assert evaluate(exists, some).passed is True
        assert evaluate(forall, some).passed is False

    def test_unbound_entity_raises(self):
        inv = parse_invariant(
            "INVARIANT x ON f CATEGORY database WHERE EXISTS(rows: rows.a == 1)"
        )
        with pytest.raises(EvaluationError):
            evaluate(inv, group())

    def test_null_and_type_mixing_never_satisfies_comparisons(self):
        cases = [
            ("f.a == 1", {"a": None}, False),
            ("f.a != 1", {"a": None}, False),  # null fails even on !=
            ("f.a == 1", {}, False),  # missing behaves as null
            ('f.a == "1"', {"a": 1}, False),  # no string/number punning
            ("f.a == 1", {"a": True}, False),  # bool is not a number
            ("f.a == 1", {"a": 1.0}, True),  # int/float compare numerically
            ('f.a < "b"', {"a": "a"}, True),  # strings order lexically
            ("f.a <= 2", {"a": True}, False),  # bools never order
        ]
        for expr, focal, expected in cases:
            inv = parse_invariant(f"INVARIANT x ON f CATEGORY format WHERE {expr}")
            assert evaluate(inv, group(focal)).passed is expected, expr

    def test_matches_is_full_width(self):
        inv = parse_invariant(
            'INVARIANT x ON f CATEGORY format WHERE f.s MATCHES "[a-z]+"'
        )
        assert evaluate(inv, group({"s": "abc"})).passed
        assert not evaluate(inv, group({"s": "abc1"})).passed  # no partial match
        assert not evaluate(inv, group({"s": 7})).passed  # non-strings never match

    def test_in_set_uses_value_equality(self):
        inv = parse_invariant(
            "INVARIANT x ON f CATEGORY format WHERE f.n IN [1, 2.5]"
        )
        assert evaluate(inv, group({"n": 1.0})).passed
        assert evaluate(inv, group({"n": 2.5})).passed
        assert not evaluate(inv, group({"n": True})).passed
        assert not evaluate(inv, group({"n": None})).passed

    def test_null_checks(self):
        null = parse_invariant("INVARIANT x ON f CATEGORY format WHERE f.a IS NULL")
        notnull = parse_invariant(
            "INVARIANT x ON f CATEGORY format WHERE f.a IS NOT NULL"
        )
        assert evaluate(null, group({"a": None})).passed
        assert evaluate(null, group({})).passed
        assert not evaluate(null, group({"a": 0})).passed
        assert evaluate(notnull, group({"a": 0})).passed

    def test_quantifier_scope_shadows_and_restores(self):
        inv = parse_invariant(
            "INVARIANT x ON f CATEGORY database WHERE "
            "EXISTS(r: r.a == 1 AND EXISTS(q: q.b == r.a)) AND EXISTS(r: r.a == 2)"
        )
        g = group(r=[{"a": 1}, {"a": 2}], q=[{"b": 1}])
        assert evaluate(inv, g).passed

    def test_de_morgan_500_random_pairs(self):
        rng = random.Random(99)
        from generators import random_expr

        for _ in range(500):
            body = random_expr(rng, depth=2, scope=("rows_a",))
            g = random_group(rng)
            not_exists = Invariant(
                id="x", focal="call",
                category="database",
                body=Not(Quant(exists=True, name="rows_a", body=body)),
            )
            forall_not = Invariant(
                id="x", focal="call",
                category="database",
                body=Quant(exists=False, name="rows_a", body=Not(body)),
            )
            assert (
                evaluate(not_exists, g).passed == evaluate(forall_not, g).passed
            ), print_invariant(not_exists)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_invariants_evaluate_without_crashing(self, seed):
        rng = random.Random(seed)
        inv = random_invariant(rng)
        g = random_group(rng)
        verdict = evaluate(inv, g)
        assert isinstance(verdict.passed, bool)
        if not verdict.passed:
            assert isinstance(explain(verdict), str)


class TestExplain:
    def test_failed_comparison_shows_values(self):
        inv = parse_invariant(
            'INVARIANT x ON f CATEGORY format WHERE f.status == "paid"'
        )
        verdict = evaluate(inv, group({"status": "unpaid"}))
        text = explain(verdict)
        assert "f.status" in text
        assert '"unpaid"' in text

    def test_passed_verdict_has_no_trace(self):
        inv = parse_invariant("INVARIANT x ON f CATEGORY format WHERE TRUE")
        verdict = evaluate(inv, group())
        assert verdict.passed and verdict.explanation == "" and explain(verdict) == ""

    def test_exists_failure_samples_at_most_three_rows(self):
        inv = parse_invariant(
            "INVARIANT x ON f CATEGORY database WHERE EXISTS(r: r.a == 99)"
        )
        g = group(r=[{"a": i} for i in range(10)])
        verdict = evaluate(inv, g)
        assert not verdict.passed
        text = explain(verdict)
        assert "10 bound row(s)" in text
        assert text.count("row[") == 3  # sampling stops at three rows

    def test_failing_conjuncts_isolate_the_bad_part(self):
        inv = parse_invariant(
            "INVARIANT x ON f CATEGORY format WHERE f.a == 1 AND f.b == 2"
        )
        parts = compile_invariant(inv).failing_conjuncts(group({"a": 1, "b": 3}))
        assert parts == ["f.b == 2"]
        # non-conjunctive body: the whole thing
        inv2 = parse_invariant("INVARIANT x ON f CATEGORY format WHERE f.a == 1")
        assert compile_invariant(inv2).failing_conjuncts(group({"a": 2})) == ["f.a == 1"]


class TestQuantifiedNames:
    def test_walks_all_shapes(self):
        inv = parse_invariant(
            "INVARIANT x ON f CATEGORY database WHERE "
            "NOT (EXISTS(a: a.k == 1)) AND (EXISTS(b: b.k == 2) OR f.x == 3)"
        )
        assert quantified_names(inv.body) == {"a", "b"}
        assert quantified_names(BoolConst(True)) == set()
