"""Invariant expression language: parser, canonical printer, compiler and
explanations.

One invariant constrains the joined groups of a single focal entity:

    INVARIANT refund_paid ON refundOrder CATEGORY database
    WHERE EXISTS(orders: orders.status == "paid")

Quantifiers range over the rows a relationship bound into the group; any
reference to a non-focal entity must sit inside a quantifier binding it,
which the parser checks as it reads.
Evaluation is two-valued: comparisons touching null are false (only
IS [NOT] NULL sees null), and type-incompatible comparisons are false.

`compile_invariant` is the one evaluator: it compiles each node of an
invariant once, into a check that refinement and detection both run and an
explanation of the node's failure as plain text.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from typing import Any, Iterable

from .errors import DslScopeError, DslSyntaxError, EvaluationError
from .lexer import Cursor, Token
from .values import value_key

CATEGORIES = ("common_sense", "format", "database", "environment", "related_api")

KEYWORDS = {
    "INVARIANT",
    "ON",
    "CATEGORY",
    "WHERE",
    "EXISTS",
    "FORALL",
    "NOT",
    "AND",
    "OR",
    "TRUE",
    "FALSE",
    "IN",
    "MATCHES",
    "IS",
    "NULL",
}

CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")


# --- AST -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Lit:
    value: Any  # str | int | float | bool


@dataclass(frozen=True, slots=True)
class FieldRef:
    root: str
    path: str


@dataclass(frozen=True, slots=True)
class BoolConst:
    value: bool


@dataclass(frozen=True, slots=True)
class Not:
    expr: Any


@dataclass(frozen=True, slots=True)
class And:
    parts: tuple


@dataclass(frozen=True, slots=True)
class Or:
    parts: tuple


@dataclass(frozen=True, slots=True)
class Quant:
    exists: bool
    name: str
    body: Any


@dataclass(frozen=True, slots=True)
class Cmp:
    op: str
    left: Any
    right: Any


@dataclass(frozen=True, slots=True)
class InSet:
    operand: Any
    items: tuple


@dataclass(frozen=True, slots=True)
class Match:
    operand: Any
    pattern: str


@dataclass(frozen=True, slots=True)
class NullCheck:
    operand: Any
    negated: bool


@dataclass(frozen=True)
class Invariant:
    id: str
    focal: str
    category: str
    body: Any


# --- parser ----------------------------------------------------------------

_DSL_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<number>-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>==|!=|<=|>=|<|>)
  | (?P<punct>[()\[\],.:])
    """,
    re.VERBOSE,
)

_BACKREF_RE = re.compile(r"\\[1-9]")


def _check_pattern(pattern: str, tok: Token) -> None:
    if _BACKREF_RE.search(pattern):
        raise DslSyntaxError("backreferences are not supported", tok.line, tok.column)
    try:
        re.compile(pattern)
    except re.error as exc:
        raise DslSyntaxError(f"bad pattern: {exc}", tok.line, tok.column)


class _Parser(Cursor):
    pattern = _DSL_TOKEN_RE
    error_class = DslSyntaxError

    def take_kw(self, word: str) -> None:
        self.take("ident", word, what=word)

    def ident(self) -> str:
        tok = self.peek()
        if tok is None or tok.kind != "ident" or tok.text in KEYWORDS:
            raise self.error("expected identifier")
        self.pos += 1
        return tok.text

    def parse_invariants(self) -> list[Invariant]:
        out = [self.parse_one()]
        while self.peek() is not None:
            out.append(self.parse_one())
        return out

    def parse_one(self) -> Invariant:
        self.take_kw("INVARIANT")
        name = self.ident()
        self.take_kw("ON")
        focal = self.ident()
        self.take_kw("CATEGORY")
        tok = self.peek()
        category = self.ident()
        if category not in CATEGORIES:
            raise DslSyntaxError(
                f"category must be one of {', '.join(CATEGORIES)}; got {category!r}",
                tok.line,
                tok.column,
            )
        self.take_kw("WHERE")
        self.bound = [focal]  # the names a field reference may start with here
        body = self.parse_expr()
        return Invariant(id=name, focal=focal, category=category, body=body)

    def parse_expr(self) -> Any:
        parts = [self.parse_andx()]
        while self.accept("ident", "OR"):
            parts.append(self.parse_andx())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_andx(self) -> Any:
        parts = [self.parse_notx()]
        while self.accept("ident", "AND"):
            parts.append(self.parse_notx())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_notx(self) -> Any:
        if self.accept("ident", "NOT"):
            return Not(self.parse_notx())
        return self.parse_atom()

    def parse_atom(self) -> Any:
        if self.accept("punct", "("):
            inner = self.parse_expr()
            self.take("punct", ")")
            return inner
        tok = self.peek()
        if tok is None:
            raise self.error("expected expression")
        if tok.kind == "ident" and tok.text in ("TRUE", "FALSE"):
            # Boolean literals double as predicate operands: look ahead.
            nxt = self.peek(1)
            if nxt is not None and (
                nxt.kind == "op"
                or (nxt.kind == "ident" and nxt.text in ("IN", "MATCHES", "IS"))
            ):
                return self.parse_pred()
            self.pos += 1
            return BoolConst(tok.text == "TRUE")
        if tok.kind == "ident" and tok.text in ("EXISTS", "FORALL"):
            self.pos += 1
            self.take("punct", "(")
            name = self.ident()
            self.take("punct", ":")
            self.bound.append(name)
            body = self.parse_expr()
            self.bound.pop()
            self.take("punct", ")")
            return Quant(exists=tok.text == "EXISTS", name=name, body=body)
        return self.parse_pred()

    def parse_pred(self) -> Any:
        operand = self.parse_operand()
        op = self.accept("op")
        if op is not None:
            right = self.parse_operand()
            return Cmp(op=op.text, left=operand, right=right)
        if self.accept("ident", "IN"):
            self.take("punct", "[")
            items = [self.parse_literal()]
            while self.accept("punct", ","):
                items.append(self.parse_literal())
            self.take("punct", "]")
            return InSet(operand=operand, items=tuple(items))
        if self.accept("ident", "MATCHES"):
            tok = self.take("string", what="pattern string")
            pattern = json.loads(tok.text)
            _check_pattern(pattern, tok)
            return Match(operand=operand, pattern=pattern)
        if self.accept("ident", "IS"):
            negated = self.accept("ident", "NOT") is not None
            self.take_kw("NULL")
            return NullCheck(operand=operand, negated=negated)
        raise self.error("expected comparison, IN, MATCHES, or IS")

    def parse_operand(self) -> Any:
        tok = self.peek()
        if tok is None:
            raise self.error("expected operand")
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            self.pos += 1
            if not self.accept("punct", "."):
                raise DslSyntaxError(
                    "field reference requires an entity-qualified path",
                    tok.line,
                    tok.column,
                )
            segments = [self.ident()]
            while self.accept("punct", "."):
                segments.append(self.ident())
            ref = FieldRef(root=tok.text, path=".".join(segments))
            if ref.root not in self.bound:
                raise DslScopeError(
                    f"reference to {ref.root}.{ref.path} is outside any "
                    f"quantifier binding {ref.root!r}",
                    tok.line,
                    tok.column,
                )
            return ref
        return self.parse_literal()

    def parse_literal(self) -> Lit:
        tok = self.peek()
        if tok is None:
            raise self.error("expected literal")
        if tok.kind == "string":
            self.pos += 1
            return Lit(json.loads(tok.text))
        if tok.kind == "number":
            self.pos += 1
            if re.fullmatch(r"-?[0-9]+", tok.text):
                return Lit(int(tok.text))
            return Lit(float(tok.text))
        if tok.kind == "ident" and tok.text in ("TRUE", "FALSE"):
            self.pos += 1
            return Lit(tok.text == "TRUE")
        raise self.error("expected literal")


def quantified_names(node: Any) -> set[str]:
    """Every binding name an expression quantifies over, at any depth."""
    if isinstance(node, Quant):
        return {node.name} | quantified_names(node.body)
    if isinstance(node, (And, Or)):
        names: set[str] = set()
        for part in node.parts:
            names |= quantified_names(part)
        return names
    if isinstance(node, Not):
        return quantified_names(node.expr)
    return set()


def parse_invariant(text: str) -> Invariant:
    parser = _Parser(text)
    inv = parser.parse_one()
    if parser.peek() is not None:
        raise parser.error("trailing input after invariant")
    return inv


def parse_invariants(text: str) -> list[Invariant]:
    parser = _Parser(text)
    if parser.peek() is None:
        return []
    return parser.parse_invariants()


# --- canonical printer -----------------------------------------------------


def format_literal(value: Any) -> str:
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    return repr(value)


def print_operand(operand: Any) -> str:
    if isinstance(operand, FieldRef):
        return f"{operand.root}.{operand.path}"
    return format_literal(operand.value)


def print_expr(node: Any) -> str:
    if isinstance(node, BoolConst):
        return "TRUE" if node.value else "FALSE"
    if isinstance(node, Not):
        return f"NOT ({print_expr(node.expr)})"
    if isinstance(node, And):
        return " AND ".join(_wrap_junct(p) for p in node.parts)
    if isinstance(node, Or):
        return " OR ".join(_wrap_junct(p) for p in node.parts)
    if isinstance(node, Quant):
        word = "EXISTS" if node.exists else "FORALL"
        return f"{word}({node.name}: {print_expr(node.body)})"
    if isinstance(node, Cmp):
        return f"{print_operand(node.left)} {node.op} {print_operand(node.right)}"
    if isinstance(node, InSet):
        items = ", ".join(format_literal(item.value) for item in node.items)
        return f"{print_operand(node.operand)} IN [{items}]"
    if isinstance(node, Match):
        return f"{print_operand(node.operand)} MATCHES {json.dumps(node.pattern)}"
    if isinstance(node, NullCheck):
        tail = "IS NOT NULL" if node.negated else "IS NULL"
        return f"{print_operand(node.operand)} {tail}"
    raise TypeError(f"not an expression node: {node!r}")


def _wrap_junct(node: Any) -> str:
    text = print_expr(node)
    if isinstance(node, (And, Or)):
        return f"({text})"
    return text


def print_invariant(inv: Invariant) -> str:
    return (
        f"INVARIANT {inv.id} ON {inv.focal} CATEGORY {inv.category} "
        f"WHERE {print_expr(inv.body)}"
    )


def write_invariant_file(invariants: Iterable[Invariant], path: str) -> None:
    from .fileio import write_text

    blocks = [print_invariant(inv) for inv in invariants]
    write_text("\n\n".join(blocks) + ("\n" if blocks else ""), path)


def read_invariant_file(path: str) -> list[Invariant]:
    with open(path, encoding="utf-8") as fh:
        return parse_invariants(fh.read())


# --- compiled evaluation and explanation ------------------------------------


@dataclass(frozen=True)
class Verdict:
    passed: bool
    explanation: str = ""


_OPERATORS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _comparable(op: str, a: Any, b: Any) -> bool:
    """Two strings, two booleans under ==/!=, or two numbers."""
    if isinstance(a, str):
        return isinstance(b, str)
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and op in ("==", "!=")
    return isinstance(a, (int, float)) and isinstance(b, (int, float))


def _unbound(name: str) -> EvaluationError:
    return EvaluationError(f"entity {name!r} is not bound in this group")


# `_compile` turns a node into two closures over (bindings, scope), the
# group's binding name -> rows map and the entity name -> current row map:
# `test` gives the node's truth value, and `why`, called only where the node
# is false, gives the failure text. Each node's printed text is formatted
# here, once.


def _compile_operand(node: Any):
    if node.__class__ is Lit:
        value = node.value
        return lambda b, s: value
    root, path = node.root, node.path

    def read(b, s):
        try:
            row = s[root]
        except KeyError:
            raise _unbound(root) from None
        return row.get(path)

    return read


_MAX_TRACED_ROWS = 3


def _compile(node: Any):
    """The node's (test, why) pair."""
    cls = node.__class__
    if cls is And or cls is Or:
        return _junction(cls, [_compile(p) for p in node.parts])
    failed = f"{print_expr(node)} failed"
    if cls is Cmp:
        op = node.op
        test = _OPERATORS[op]
        left = _compile_operand(node.left)
        right = _compile_operand(node.right)

        def compare(b, s):
            x = left(b, s)
            y = right(b, s)
            # null never compares; mixed types never satisfy any operator
            return (
                x is not None
                and y is not None
                and _comparable(op, x, y)
                and test(x, y)
            )

        return compare, _predicate_why(failed, (node.left, node.right), (left, right), op)
    if cls is Quant:
        name = node.name
        body, body_why = _compile(node.body)
        exists = node.exists

        def quantified(b, s):
            try:
                rows = b[name]
            except KeyError:
                raise _unbound(name) from None
            prev = s.get(name)
            try:
                if exists:
                    for row in rows:
                        s[name] = row
                        if body(b, s):
                            return True
                    return False
                for row in rows:
                    s[name] = row
                    if not body(b, s):
                        return False
                return True
            finally:
                if prev is None:
                    s.pop(name, None)
                else:
                    s[name] = prev

        # a failed EXISTS fails on every row, so both count the failing rows
        # and explain the first few
        counted = "{n} bound row(s)" if exists else "{bad} of {n} row(s) violated"

        def why(b, s):
            try:
                rows = b[name]
            except KeyError:
                raise _unbound(name) from None
            prev = s.get(name)
            children = []
            bad = 0
            try:
                for i, row in enumerate(rows):
                    s[name] = row
                    if not body(b, s):
                        bad += 1
                        if bad <= _MAX_TRACED_ROWS:
                            children.append(f"row[{i}]: {body_why(b, s)}")
            finally:
                if prev is None:
                    s.pop(name, None)
                else:
                    s[name] = prev
            label = f"{failed}: {counted.format(bad=bad, n=len(rows))}"
            return "; ".join([label, *children])

        return quantified, why
    if cls is Not:
        inner = _compile(node.expr)[0]
        held = f"{failed}: inner condition held"
        return (lambda b, s: not inner(b, s)), (lambda b, s: held)
    if cls is NullCheck:
        operand = _compile_operand(node.operand)
        if node.negated:
            test = lambda b, s: operand(b, s) is not None
        else:
            test = lambda b, s: operand(b, s) is None
    elif cls is Match:
        operand = _compile_operand(node.operand)
        fullmatch = re.compile(node.pattern).fullmatch

        def test(b, s):
            value = operand(b, s)
            return isinstance(value, str) and fullmatch(value) is not None

    elif cls is InSet:
        operand = _compile_operand(node.operand)
        keys = frozenset(value_key(item.value) for item in node.items)
        test = lambda b, s: value_key(operand(b, s)) in keys
    elif cls is BoolConst:
        value = node.value
        return (lambda b, s: value), (lambda b, s: failed)
    else:
        raise TypeError(f"not an expression node: {node!r}")
    return test, _predicate_why(failed, (node.operand,), (operand,))


def _junction(cls: type, pairs: list):
    """The (test, why) pair of an And or Or over its parts' pairs."""
    tests = tuple(test for test, _ in pairs)
    if cls is And:
        if len(tests) == 2:
            first, second = tests
            test = lambda b, s: first(b, s) and second(b, s)
        else:
            test = lambda b, s: all(t(b, s) for t in tests)
        return test, lambda b, s: " AND ".join(w(b, s) for t, w in pairs if not t(b, s))
    if len(tests) == 2:
        first, second = tests
        test = lambda b, s: first(b, s) or second(b, s)
    else:
        test = lambda b, s: any(t(b, s) for t in tests)
    return test, lambda b, s: " OR ".join(w(b, s) for _, w in pairs)


def _predicate_why(failed: str, operands: tuple, reads: tuple, op: str | None = None):
    """A failed predicate's text: the value of each field it read, and for a
    comparison `op` of two values of unrelated types, a note saying so."""
    labels = [
        f"{o.root}.{o.path} = " if o.__class__ is FieldRef else None for o in operands
    ]

    def why(b, s):
        values = [read(b, s) for read in reads]
        details = ", ".join(
            label + ("NULL" if v is None else format_literal(v))
            for label, v in zip(labels, values)
            if label
        )
        text = f"{failed} ({details})" if details else failed
        if op is not None:
            x, y = values
            if x is not None and y is not None and not _comparable(op, x, y):
                text += "; incompatible types"
        return text

    return why


class CompiledInvariant:
    """One invariant compiled to closures over a group.

    Calling it on a group gives the verdict. The group must expose `focal`
    (attribute map of the focal row) and `bindings` (binding name -> list
    of rows). Every node is compiled once, into its check and the
    explanation of its failure.
    """

    __slots__ = ("invariant", "_focal", "_test", "_why", "_conjuncts")

    def __init__(self, inv: Invariant):
        self.invariant = inv
        self._focal = inv.focal
        body = inv.body
        conjunctive = body.__class__ is And
        parts = body.parts if conjunctive else (body,)
        pairs = [_compile(part) for part in parts]
        # the top-level conjuncts with their tests, for failing_conjuncts
        self._conjuncts = [(part, test) for part, (test, _) in zip(parts, pairs)]
        self._test, self._why = _junction(And, pairs) if conjunctive else pairs[0]

    def __call__(self, group: Any) -> bool:
        return self._test(group.bindings, {self._focal: group.focal})

    def explain(self, group: Any) -> str:
        """Explanation of why this invariant fails on the group."""
        return self._why(group.bindings, {self._focal: group.focal})

    def failing_conjuncts(self, group: Any) -> list[str]:
        """Printed top-level conjuncts that fail on the group.

        For a non-conjunctive body the whole printed body is returned when
        it fails.
        """
        scope = {self._focal: group.focal}
        return [
            print_expr(part)
            for part, test in self._conjuncts
            if not test(group.bindings, scope)
        ]


def compile_invariant(inv: Invariant) -> CompiledInvariant:
    """Compile once, then call the result on each group."""
    return CompiledInvariant(inv)


def evaluate(inv: Invariant, group: Any) -> Verdict:
    """Evaluate one invariant against one joined group, explaining a failure."""
    fn = compile_invariant(inv)
    if fn(group):
        return Verdict(passed=True)
    return Verdict(passed=False, explanation=fn.explain(group))


def explain(verdict: Verdict) -> str:
    """Human-readable account of a failed evaluation; empty when it passed."""
    return verdict.explanation

