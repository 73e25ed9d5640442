"""Invariant expression language: parser, canonical printer, compiler and
explanations.

One invariant constrains the joined groups of a single focal entity:

    INVARIANT refund_paid ON refundOrder CATEGORY database
    WHERE EXISTS(orders: orders.status == "paid")

Quantifiers range over the rows a relationship bound into the group; any
reference to a non-focal entity must sit inside a quantifier binding it.
Evaluation is two-valued: comparisons touching null are false (only
IS [NOT] NULL sees null), and type-incompatible comparisons are false.

`compile_invariant` is the one evaluator: it turns an invariant into
closures that refinement and detection both run, and a failure's
explanation re-runs the closures of the sub-expressions it reports on.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from typing import Any, Iterable

from .errors import DslScopeError, DslSyntaxError, EvaluationError
from .values import values_equal

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


# --- tokenizer -------------------------------------------------------------

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


@dataclass(frozen=True)
class _Tok:
    kind: str  # STRING NUMBER IDENT KW OP PUNCT
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Tok]:
    tokens: list[_Tok] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        match = _DSL_TOKEN_RE.match(text, pos)
        if match is None:
            raise DslSyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = match.lastgroup or ""
        raw = match.group(0)
        column = pos - line_start + 1
        if kind == "ident":
            tokens.append(_Tok("KW" if raw in KEYWORDS else "IDENT", raw, line, column))
        elif kind == "string":
            tokens.append(_Tok("STRING", raw, line, column))
        elif kind == "number":
            tokens.append(_Tok("NUMBER", raw, line, column))
        elif kind == "op":
            tokens.append(_Tok("OP", raw, line, column))
        elif kind == "punct":
            tokens.append(_Tok("PUNCT", raw, line, column))
        newlines = raw.count("\n")
        if newlines:
            line += newlines
            line_start = pos + raw.rfind("\n") + 1
        pos = match.end()
    return tokens


_BACKREF_RE = re.compile(r"\\[1-9]")


def _check_pattern(pattern: str, tok: _Tok) -> None:
    if _BACKREF_RE.search(pattern):
        raise DslSyntaxError("backreferences are not supported", tok.line, tok.column)
    try:
        re.compile(pattern)
    except re.error as exc:
        raise DslSyntaxError(f"bad pattern: {exc}", tok.line, tok.column)


# --- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def _error(self, message: str) -> DslSyntaxError:
        if self.pos < len(self.tokens):
            tok = self.tokens[self.pos]
            return DslSyntaxError(f"{message}, got {tok.text!r}", tok.line, tok.column)
        if self.tokens:
            last = self.tokens[-1]
            return DslSyntaxError(message, last.line, last.column + len(last.text))
        return DslSyntaxError(message, 1, 1)

    def peek(self) -> _Tok | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def at_kw(self, word: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "KW" and tok.text == word

    def take_kw(self, word: str) -> None:
        if not self.at_kw(word):
            raise self._error(f"expected {word}")
        self.pos += 1

    def try_kw(self, word: str) -> bool:
        if self.at_kw(word):
            self.pos += 1
            return True
        return False

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "PUNCT" and tok.text == text

    def take_punct(self, text: str) -> None:
        if not self.at_punct(text):
            raise self._error(f"expected {text!r}")
        self.pos += 1

    def try_punct(self, text: str) -> bool:
        if self.at_punct(text):
            self.pos += 1
            return True
        return False

    def ident(self) -> str:
        tok = self.peek()
        if tok is None or tok.kind != "IDENT":
            raise self._error("expected identifier")
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
        category = self.ident()
        if category not in CATEGORIES:
            raise self._error(
                f"category must be one of {', '.join(CATEGORIES)}; got {category!r}"
            )
        self.take_kw("WHERE")
        body = self.parse_expr()
        inv = Invariant(id=name, focal=focal, category=category, body=body)
        _check_scope(inv.body, focal, frozenset())
        return inv

    def parse_expr(self) -> Any:
        parts = [self.parse_andx()]
        while self.try_kw("OR"):
            parts.append(self.parse_andx())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_andx(self) -> Any:
        parts = [self.parse_notx()]
        while self.try_kw("AND"):
            parts.append(self.parse_notx())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_notx(self) -> Any:
        if self.try_kw("NOT"):
            return Not(self.parse_notx())
        return self.parse_atom()

    def parse_atom(self) -> Any:
        if self.try_punct("("):
            inner = self.parse_expr()
            self.take_punct(")")
            return inner
        tok = self.peek()
        if tok is None:
            raise self._error("expected expression")
        if tok.kind == "KW" and tok.text in ("TRUE", "FALSE"):
            # Boolean literals double as predicate operands: look ahead.
            nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            if nxt is not None and (
                nxt.kind == "OP" or (nxt.kind == "KW" and nxt.text in ("IN", "MATCHES", "IS"))
            ):
                return self.parse_pred()
            self.pos += 1
            return BoolConst(tok.text == "TRUE")
        if tok.kind == "KW" and tok.text in ("EXISTS", "FORALL"):
            self.pos += 1
            self.take_punct("(")
            name = self.ident()
            self.take_punct(":")
            body = self.parse_expr()
            self.take_punct(")")
            return Quant(exists=tok.text == "EXISTS", name=name, body=body)
        return self.parse_pred()

    def parse_pred(self) -> Any:
        operand = self.parse_operand()
        tok = self.peek()
        if tok is not None and tok.kind == "OP":
            self.pos += 1
            right = self.parse_operand()
            return Cmp(op=tok.text, left=operand, right=right)
        if self.try_kw("IN"):
            self.take_punct("[")
            items = [self.parse_literal()]
            while self.try_punct(","):
                items.append(self.parse_literal())
            self.take_punct("]")
            return InSet(operand=operand, items=tuple(items))
        if self.try_kw("MATCHES"):
            tok = self.peek()
            if tok is None or tok.kind != "STRING":
                raise self._error("expected pattern string")
            self.pos += 1
            pattern = json.loads(tok.text)
            _check_pattern(pattern, tok)
            return Match(operand=operand, pattern=pattern)
        if self.try_kw("IS"):
            negated = self.try_kw("NOT")
            self.take_kw("NULL")
            return NullCheck(operand=operand, negated=negated)
        raise self._error("expected comparison, IN, MATCHES, or IS")

    def parse_operand(self) -> Any:
        tok = self.peek()
        if tok is None:
            raise self._error("expected operand")
        if tok.kind == "IDENT":
            self.pos += 1
            if not self.try_punct("."):
                raise DslSyntaxError(
                    "field reference requires an entity-qualified path",
                    tok.line,
                    tok.column,
                )
            segments = [self.ident()]
            while self.try_punct("."):
                segments.append(self.ident())
            return FieldRef(root=tok.text, path=".".join(segments))
        return self.parse_literal()

    def parse_literal(self) -> Lit:
        tok = self.peek()
        if tok is None:
            raise self._error("expected literal")
        if tok.kind == "STRING":
            self.pos += 1
            return Lit(json.loads(tok.text))
        if tok.kind == "NUMBER":
            self.pos += 1
            if re.fullmatch(r"-?[0-9]+", tok.text):
                return Lit(int(tok.text))
            return Lit(float(tok.text))
        if tok.kind == "KW" and tok.text in ("TRUE", "FALSE"):
            self.pos += 1
            return Lit(tok.text == "TRUE")
        raise self._error("expected literal")


def _refs_of(operand: Any) -> Iterable[FieldRef]:
    if isinstance(operand, FieldRef):
        yield operand


def _check_scope(node: Any, focal: str, bound: frozenset) -> None:
    if isinstance(node, (Cmp, InSet, Match, NullCheck)):
        operands = (
            (node.left, node.right) if isinstance(node, Cmp) else (node.operand,)
        )
        for operand in operands:
            for ref in _refs_of(operand):
                if ref.root != focal and ref.root not in bound:
                    raise DslScopeError(
                        f"reference to {ref.root}.{ref.path} is outside any "
                        f"quantifier binding {ref.root!r}"
                    )
    elif isinstance(node, Not):
        _check_scope(node.expr, focal, bound)
    elif isinstance(node, (And, Or)):
        for part in node.parts:
            _check_scope(part, focal, bound)
    elif isinstance(node, Quant):
        _check_scope(node.body, focal, bound | {node.name})


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
        raise parser._error("trailing input after invariant")
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
class TraceNode:
    label: str
    combiner: str = "leaf"  # leaf | and | or
    children: tuple = ()


@dataclass(frozen=True)
class Verdict:
    passed: bool
    trace: TraceNode | None


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


# Every closure takes (bindings, scope): the group's binding name -> rows map
# and the entity name -> current row map. `closures` collects the closure of
# each node and operand by id() so the tracer can re-run any sub-expression.


def _compile_operand(node: Any, closures: dict):
    if node.__class__ is Lit:
        value = node.value

        def read(b, s):
            return value

    else:
        root, path = node.root, node.path

        def read(b, s):
            try:
                row = s[root]
            except KeyError:
                raise _unbound(root) from None
            return row.get(path)

    closures[id(node)] = read
    return read


def _compile(node: Any, closures: dict):
    fn = _compile_node(node, closures)
    closures[id(node)] = fn
    return fn


def _compile_node(node: Any, closures: dict):
    cls = node.__class__
    if cls is Cmp:
        op = node.op
        test = _OPERATORS[op]
        left = _compile_operand(node.left, closures)
        right = _compile_operand(node.right, closures)

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

        return compare
    if cls is Quant:
        name = node.name
        body = _compile(node.body, closures)
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

        return quantified
    if cls is And:
        parts = tuple(_compile(p, closures) for p in node.parts)
        if len(parts) == 2:
            first, second = parts
            return lambda b, s: first(b, s) and second(b, s)
        return lambda b, s: all(p(b, s) for p in parts)
    if cls is Or:
        parts = tuple(_compile(p, closures) for p in node.parts)
        if len(parts) == 2:
            first, second = parts
            return lambda b, s: first(b, s) or second(b, s)
        return lambda b, s: any(p(b, s) for p in parts)
    if cls is Not:
        inner = _compile(node.expr, closures)
        return lambda b, s: not inner(b, s)
    if cls is NullCheck:
        operand = _compile_operand(node.operand, closures)
        if node.negated:
            return lambda b, s: operand(b, s) is not None
        return lambda b, s: operand(b, s) is None
    if cls is Match:
        operand = _compile_operand(node.operand, closures)
        fullmatch = re.compile(node.pattern).fullmatch

        def matches(b, s):
            value = operand(b, s)
            return isinstance(value, str) and fullmatch(value) is not None

        return matches
    if cls is InSet:
        operand = _compile_operand(node.operand, closures)
        items = tuple(item.value for item in node.items)

        def member(b, s):
            value = operand(b, s)
            if value is None:
                return False
            return any(values_equal(value, item) for item in items)

        return member
    if cls is BoolConst:
        value = node.value
        return lambda b, s: value
    raise TypeError(f"not an expression node: {node!r}")


def _fmt_value(value: Any) -> str:
    if value is None:
        return "NULL"
    return format_literal(value)


_MAX_TRACED_ROWS = 3


def _trace(node: Any, closures: dict, b: dict, s: dict) -> TraceNode:
    """Build the failure trace for a node known to evaluate false."""
    cls = node.__class__
    if cls in (Cmp, InSet, Match, NullCheck):
        operands = (node.left, node.right) if cls is Cmp else (node.operand,)
        values = [closures[id(op)](b, s) for op in operands]
        details = [
            f"{op.root}.{op.path} = {_fmt_value(value)}"
            for op, value in zip(operands, values)
            if isinstance(op, FieldRef)
        ]
        note = ""
        if cls is Cmp:
            left, right = values
            if left is not None and right is not None and not _comparable(
                node.op, left, right
            ):
                note = "; incompatible types"
        suffix = f" ({', '.join(details)})" if details else ""
        return TraceNode(f"{print_expr(node)} failed{suffix}{note}")
    if cls is And:
        failing = tuple(
            _trace(p, closures, b, s) for p in node.parts if not closures[id(p)](b, s)
        )
        return TraceNode("", combiner="and", children=failing)
    if cls is Or:
        failing = tuple(_trace(p, closures, b, s) for p in node.parts)
        return TraceNode("", combiner="or", children=failing)
    if cls is Not:
        return TraceNode(
            f"NOT ({print_expr(node.expr)}) failed: inner condition held"
        )
    if cls is Quant:
        rows = b.get(node.name)
        if rows is None:
            raise _unbound(node.name)
        body = closures[id(node.body)]
        prev = s.get(node.name)
        children = []
        try:
            if node.exists:
                for i, row in enumerate(rows[:_MAX_TRACED_ROWS]):
                    s[node.name] = row
                    inner = _trace(node.body, closures, b, s)
                    children.append(TraceNode(f"row[{i}]: {explain_trace(inner)}"))
                label = (
                    f"EXISTS({node.name}: {print_expr(node.body)}) failed: "
                    f"{len(rows)} bound row(s)"
                )
            else:
                bad = 0
                for i, row in enumerate(rows):
                    s[node.name] = row
                    if not body(b, s):
                        bad += 1
                        if len(children) < _MAX_TRACED_ROWS:
                            inner = _trace(node.body, closures, b, s)
                            children.append(
                                TraceNode(f"row[{i}]: {explain_trace(inner)}")
                            )
                label = (
                    f"FORALL({node.name}: {print_expr(node.body)}) failed: "
                    f"{bad} of {len(rows)} row(s) violated"
                )
        finally:
            if prev is None:
                s.pop(node.name, None)
            else:
                s[node.name] = prev
        return TraceNode(label, children=tuple(children))
    if cls is BoolConst:
        return TraceNode("FALSE failed")
    raise TypeError(f"not an expression node: {node!r}")


class CompiledInvariant:
    """One invariant compiled to closures over a group.

    Calling it on a group gives the verdict. The group must expose `focal`
    (attribute map of the focal row) and `bindings` (binding name -> list
    of rows). A failure's trace re-runs the closures compiled for the
    sub-expressions it reports on.
    """

    __slots__ = ("invariant", "_focal", "_body", "_closures")

    def __init__(self, inv: Invariant):
        self.invariant = inv
        self._focal = inv.focal
        self._closures: dict = {}
        self._body = _compile(inv.body, self._closures)

    def __call__(self, group: Any) -> bool:
        return self._body(group.bindings, {self._focal: group.focal})

    def trace(self, group: Any) -> TraceNode:
        """Failure trace of a group this invariant fails on."""
        scope = {self._focal: group.focal}
        return _trace(self.invariant.body, self._closures, group.bindings, scope)

    def failing_conjuncts(self, group: Any) -> list[str]:
        """Printed top-level conjuncts that fail on the group.

        For a non-conjunctive body the whole printed body is returned when
        it fails.
        """
        body = self.invariant.body
        if isinstance(body, And):
            scope = {self._focal: group.focal}
            return [
                print_expr(part)
                for part in body.parts
                if not self._closures[id(part)](group.bindings, scope)
            ]
        return [] if self(group) else [print_expr(body)]


def compile_invariant(inv: Invariant) -> CompiledInvariant:
    """Compile once, then call the result on each group."""
    return CompiledInvariant(inv)


def evaluate(inv: Invariant, group: Any) -> Verdict:
    """Evaluate one invariant against one joined group, tracing a failure."""
    fn = compile_invariant(inv)
    if fn(group):
        return Verdict(passed=True, trace=None)
    return Verdict(passed=False, trace=fn.trace(group))


def explain_trace(trace: TraceNode) -> str:
    if trace.combiner == "and":
        return " AND ".join(explain_trace(c) for c in trace.children)
    if trace.combiner == "or":
        return " OR ".join(explain_trace(c) for c in trace.children)
    text = trace.label
    if trace.children:
        text += "; " + "; ".join(explain_trace(c) for c in trace.children)
    return text


def explain(verdict: Verdict) -> str:
    """Human-readable account of a failed evaluation."""
    if verdict.passed or verdict.trace is None:
        return ""
    return explain_trace(verdict.trace)


def failing_conjuncts(inv: Invariant, group: Any) -> list[str]:
    """Printed top-level conjuncts of `inv` that fail on the group."""
    return compile_invariant(inv).failing_conjuncts(group)
