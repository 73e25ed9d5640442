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

Evaluation and explanation are generated Python: an Emitter translates an
expression into one Python expression of its truth value (Emitter.test),
with comparisons specialised by literal type and every read that no
quantified row feeds hoisted to the top of the function, or of its failure
text (Emitter.why), which names the parts that failed and the values they
read. A quantifier at a statement position (a checked body or top-level
conjunct, or a NOT of one) is tested by a `for ... else` loop instead
(Emitter.branch): any() or all() over a generator makes a frame per call,
which costs several times the loop on the one or two rows a binding mostly
holds. Quantifiers nested in an expression stay generators. It is the one
evaluator, with two entry points: `compile_invariant` generates, per
invariant, one diagnosis function of (focal row, bindings) whose failure
text and failing-conjunct positions give the verdict, the explanation and
the failing conjuncts (detection's explanations, refinement's samples and
the tests), and `compile_checks` builds detection's one function per focal
API, whose binding rows the join engine supplies and which hands them back
for a failing call. Invariant text never becomes an identifier: names and
literals enter the code through repr() or the function's namespace.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from .errors import DslScopeError, DslSyntaxError, EvaluationError
from .fileio import read_file, write_chunks
from .lexer import Cursor, Token
from .values import Record, value_key

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

# NOT, a parenthesised group and a quantifier each open a level. A
# generated test or explanation nests at most three Python parentheses per
# level, and Python's own parser stops at 200.
MAX_NESTING = 50
# A check costs the product of its nested quantifiers' row counts: a deeper
# nest is refused before it is compiled, in a candidate and in a file.
MAX_QUANTIFIER_DEPTH = 3


# --- AST -------------------------------------------------------------------


class Lit(Record):
    __slots__ = ("value",)

    def __init__(self, value: Any):  # str | int | float | bool
        self.value = value


class FieldRef(Record):
    __slots__ = ("root", "path")

    def __init__(self, root: str, path: str):
        self.root = root
        self.path = path


class BoolConst(Record):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value


class Not(Record):
    __slots__ = ("expr",)

    def __init__(self, expr: Any):
        self.expr = expr


class And(Record):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        self.parts = parts


class Or(Record):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        self.parts = parts


class Quant(Record):
    __slots__ = ("exists", "name", "body")

    def __init__(self, exists: bool, name: str, body: Any):
        self.exists = exists
        self.name = name
        self.body = body


class Cmp(Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Any, right: Any):
        self.op = op
        self.left = left
        self.right = right


class InSet(Record):
    __slots__ = ("operand", "items")

    def __init__(self, operand: Any, items: tuple):
        self.operand = operand
        self.items = items


class Match(Record):
    __slots__ = ("operand", "pattern")

    def __init__(self, operand: Any, pattern: str):
        self.operand = operand
        self.pattern = pattern


class NullCheck(Record):
    __slots__ = ("operand", "negated")

    def __init__(self, operand: Any, negated: bool):
        self.operand = operand
        self.negated = negated


# a dataclass, unlike the other records: library callers copy it with
# dataclasses.replace
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
        """Every invariant left. One whose quantifiers nest deeper than
        MAX_QUANTIFIER_DEPTH is an error at its INVARIANT keyword."""
        out = []
        while True:
            start = self.peek()
            inv = self.parse_one()
            depth = max((d for _, d in quantifiers(inv.body)), default=0)
            if depth > MAX_QUANTIFIER_DEPTH:
                raise DslSyntaxError(
                    f"invariant {inv.id!r} nests quantifiers {depth} deep, "
                    f"more than {MAX_QUANTIFIER_DEPTH}",
                    start.line,
                    start.column,
                )
            out.append(inv)
            if self.peek() is None:
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
        self.depth = 0
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

    def nest(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"expression nested deeper than {MAX_NESTING} levels", got=False)

    def parse_notx(self) -> Any:
        if self.accept("ident", "NOT"):
            self.nest()
            inner = self.parse_notx()
            self.depth -= 1
            return Not(inner)
        return self.parse_atom()

    def parse_atom(self) -> Any:
        if self.accept("punct", "("):
            self.nest()
            inner = self.parse_expr()
            self.take("punct", ")")
            self.depth -= 1
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
            self.nest()
            self.bound.append(name)
            body = self.parse_expr()
            self.bound.pop()
            self.take("punct", ")")
            self.depth -= 1
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


def quantifiers(node: Any, depth: int = 1) -> Iterator[tuple[str, int]]:
    """(bound name, nesting depth) of each quantifier of an expression, in
    text order."""
    cls = node.__class__
    if cls is Quant:
        yield node.name, depth
        yield from quantifiers(node.body, depth + 1)
    elif cls is And or cls is Or:
        for part in node.parts:
            yield from quantifiers(part, depth)
    elif cls is Not:
        yield from quantifiers(node.expr, depth)


def admission_problem(inv: Invariant, focal_name: str, bound: set[str] | None) -> str | None:
    """Why `inv` cannot run as an invariant of `focal_name`, or None: it is
    about another API, nests its quantifiers deeper than
    MAX_QUANTIFIER_DEPTH or quantifies over a name not in `bound`, the names
    the API binds (None admits any name). Refinement vets each candidate by
    this rule, and detection each invariant before any check runs.
    """
    if inv.focal != focal_name:
        return f"wrong focal entity {inv.focal!r}"
    found = list(quantifiers(inv.body))
    depth = max((d for _, d in found), default=0)
    if depth > MAX_QUANTIFIER_DEPTH:
        return f"quantifiers nested {depth} deep, more than {MAX_QUANTIFIER_DEPTH}"
    for name, _ in found:
        if bound is not None and name not in bound:
            return f"unknown binding: entity {name!r} is not bound in this group"
    return None


def quantified_names(node: Any) -> set[str]:
    """Every binding name an expression quantifies over, at any depth."""
    return {name for name, _ in quantifiers(node)}


def field_refs(node: Any) -> Iterator[FieldRef]:
    """Every field reference of an expression, at any depth."""
    cls = node.__class__
    if cls is FieldRef:
        yield node
    elif cls is And or cls is Or:
        for part in node.parts:
            yield from field_refs(part)
    elif cls is Not:
        yield from field_refs(node.expr)
    elif cls is Quant:
        yield from field_refs(node.body)
    elif cls is Cmp:
        yield from field_refs(node.left)
        yield from field_refs(node.right)
    elif cls in (InSet, Match, NullCheck):
        yield from field_refs(node.operand)


def parse_invariant(text: str) -> Invariant:
    parser = _Parser(text)
    inv = parser.parse_one()
    if parser.peek() is not None:
        raise parser.error("trailing input after invariant")
    return inv


def parse_invariants(text: str) -> list[Invariant]:
    """The invariants of a file's text. A quantifier nest deeper than
    MAX_QUANTIFIER_DEPTH is refused here, as refinement refuses a candidate
    (parse_invariant) that has one."""
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
    blocks = [print_invariant(inv) for inv in invariants]
    write_chunks(("\n\n".join(blocks), "\n" if blocks else ""), path)


def read_invariant_file(path: str) -> list[Invariant]:
    return parse_invariants(read_file(path))


# --- generated evaluation and explanation -----------------------------------


class Verdict(Record):
    __slots__ = ("passed", "explanation")

    def __init__(self, passed: bool, explanation: str = ""):
        self.passed = passed
        self.explanation = explanation


# the same comparison with its operands swapped
_MIRRORED = {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _comparable(op: str, a: Any, b: Any) -> bool:
    """Two strings, two booleans under ==/!=, or two numbers; never null."""
    if isinstance(a, str):
        return isinstance(b, str)
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and op in ("==", "!=")
    return isinstance(a, (int, float)) and isinstance(b, (int, float))


def _unbound(name: str):
    raise EvaluationError(f"entity {name!r} is not bound in this group")


def _rows(bindings: dict, name: str):
    rows = bindings.get(name)
    return _unbound(name) if rows is None else rows


# An explanation is generated code too (Emitter.why), run only where its
# node is false; these are the helpers it calls.

_MAX_TRACED_ROWS = 3


def _fmt(value: Any) -> str:
    return "NULL" if value is None else format_literal(value)


def _note(op: str, x: Any, y: Any) -> str:
    """What a failed comparison of two values of unrelated types adds."""
    if x is None or y is None or _comparable(op, x, y):
        return ""
    return "; incompatible types"


def _and_why(*texts: str | None) -> str:
    """The failing conjuncts' texts; a conjunct that holds passes None."""
    return " AND ".join(text for text in texts if text is not None)


def _rows_why(failed: str, exists: bool, rows: list, test, why) -> str:
    """A failed quantifier's text: the failing rows counted (a failed EXISTS
    fails on every row) and the first few explained."""
    bad = 0
    children = []
    for i, row in enumerate(rows):
        if not test(row):
            bad += 1
            if bad <= _MAX_TRACED_ROWS:
                children.append(f"row[{i}]: {why(row)}")
    counted = f"{len(rows)} bound row(s)" if exists else f"{bad} of {len(rows)} row(s) violated"
    return "; ".join([f"{failed}: {counted}", *children])


# names every generated function may use; the emitter's own start with _v,
# _k, _r and _t, its parameters are row and b, and its locals bad and why
_HELPERS = {
    "_comparable": _comparable,
    "_value_key": value_key,
    "_rows": _rows,
    "_unbound": _unbound,
    "_fmt": _fmt,
    "_note": _note,
    "_and_why": _and_why,
    "_rows_why": _rows_why,
}


# evaluate() compiles an invariant per call, and each refinement round its
# checks again: equal source compiles once
@functools.lru_cache(maxsize=1024)
def _code(source: str):
    return compile(source, "<invariant>", "exec")


class Emitter:
    """The source of one generated function and the namespace it runs in.

    Field paths, binding names and literals from the invariant text reach
    the source only through repr(), or as namespace constants (patterns,
    value sets, non-finite numbers); every identifier is made here. Work
    that no quantified row feeds (a read of a row the function starts with,
    its value key, a binding's rows) is hoisted into the prologue and done
    once per call.

    `rows` maps a binding name to an expression of its rows, hoisted by
    whoever built it; without it, rows are read from the `b` argument when
    a quantifier is reached.
    """

    def __init__(self):
        self.ns = dict(_HELPERS)
        self.rows: dict[str, str] | None = None
        self._prologue: list[str] = []
        self._locals: dict[str, str] = {}
        self._made = 0

    def _name(self, prefix: str) -> str:
        self._made += 1
        return f"{prefix}{self._made}"

    def const(self, value: Any) -> str:
        """A namespace name holding `value`."""
        name = self._name("_k")
        self.ns[name] = value
        return name

    def local(self, code: str) -> str:
        """A local computed from `code` once, at the top of the function."""
        name = self._locals.get(code)
        if name is None:
            name = self._locals[code] = self._name("_v")
            self._prologue.append(f"{name} = {code}")
        return name

    def read(self, row: str, path: str) -> str:
        return self.local(f"{row}.get({path!r})")

    def key(self, row: str, path: str) -> str:
        return self.local(f"_value_key({self.read(row, path)})")

    def literal(self, value: Any) -> str:
        cls = value.__class__
        if cls in (str, bool, int) or (cls is float and math.isfinite(value)):
            text = repr(value)
            return f"({text})" if text.startswith("-") else text
        return self.const(value)

    def function(self, params: str, body: list[str]):
        lines = [f"def _f({params}):", *(f"    {line}" for line in self._prologue + body)]
        exec(_code("\n".join(lines) + "\n"), self.ns)
        # the namespace must not keep the function: that cycle would hold
        # whatever the function reads until the next full collection
        return self.ns.pop("_f")

    # `env` maps each entity name in scope to (row code, hoisted): a row the
    # function starts with has its reads hoisted, a quantified row does not

    def _binding(self, name: str) -> str:
        if self.rows is None:
            return f"_rows(b, {name!r})"
        rows = self.rows.get(name)
        return rows if rows is not None else f"_unbound({name!r})"

    def _operand(self, node: Any, env: dict, twice: bool = False) -> tuple[str, str]:
        """Code reading an operand, and code that gives the value again once
        the first has run."""
        if node.__class__ is Lit:
            text = self.literal(node.value)
            return text, text
        bound = env.get(node.root)
        if bound is None:
            text = f"_unbound({node.root!r})"
            return text, text
        row, hoisted = bound
        if hoisted:
            text = self.read(row, node.path)
            return text, text
        text = f"{row}.get({node.path!r})"
        if not twice:
            return text, text
        temp = self._name("_t")
        return f"({temp} := {text})", temp

    def test(self, node: Any, env: dict) -> str:
        """The node's truth value as a Python expression."""
        cls = node.__class__
        if cls is And or cls is Or:
            word = " and " if cls is And else " or "
            return "(" + word.join(self.test(part, env) for part in node.parts) + ")"
        if cls is Not:
            return f"(not {self.test(node.expr, env)})"
        if cls is BoolConst:
            return "True" if node.value else "False"
        if cls is Quant:
            rows = self._binding(node.name)
            body = node.body
            if node.exists and body.__class__ is BoolConst and body.value:
                return f"bool({rows})"
            row = self._name("_r")
            inner = self.test(body, {**env, node.name: (row, False)})
            return f"{'any' if node.exists else 'all'}({inner} for {row} in {rows})"
        if cls is Cmp:
            return self._compare(node.op, node.left, node.right, env)
        if cls is NullCheck:
            if node.operand.__class__ is Lit:  # `is` on a literal is a SyntaxWarning
                return str((node.operand.value is None) != node.negated)
            value, _ = self._operand(node.operand, env)
            return f"({value} is {'not ' if node.negated else ''}None)"
        if cls is Match:
            value, again = self._operand(node.operand, env, twice=True)
            fullmatch = self.const(re.compile(node.pattern).fullmatch)
            return f"(isinstance({value}, str) and {fullmatch}({again}) is not None)"
        if cls is InSet:
            keys = self.const(frozenset(value_key(item.value) for item in node.items))
            operand = node.operand
            bound = env.get(operand.root) if operand.__class__ is FieldRef else None
            if bound is not None and bound[1]:
                key = self.key(bound[0], operand.path)
            else:
                key = f"_value_key({self._operand(operand, env)[0]})"
            return f"({key} in {keys})"
        raise TypeError(f"not an expression node: {node!r}")

    def branch(self, node: Any, env: dict, when: bool, then: list[str]) -> list[str]:
        """Statements running `then` where the node's truth value is `when`.

        A quantifier, bare or under NOTs, becomes a loop that stops at the
        first row deciding it (one whose test holds, for EXISTS; fails, for
        FORALL) and runs `then` there or, when no row decides, in the
        loop's else, so it makes no generator frame. Quantifiers inside it
        stay expressions.
        """
        cls = node.__class__
        if cls is Not:
            return self.branch(node.expr, env, not when, then)
        body = node.body if cls is Quant else None
        if body is None or (node.exists and body.__class__ is BoolConst and body.value):
            return [f"if {'' if when else 'not '}{self.test(node, env)}:", *_indent(then)]
        row = self._name("_r")
        test = self.test(body, {**env, node.name: (row, False)})
        lines = [f"for {row} in {self._binding(node.name)}:",
                 f"    if {'' if node.exists else 'not '}{test}:"]
        if node.exists == when:  # the deciding row gives the value wanted
            return lines + _indent(then, 2) + ["        break"]
        return lines + ["        break", "else:", *_indent(then)]

    def _compare(self, op: str, left: Any, right: Any, env: dict) -> str:
        # a literal operand lets the type rule be settled here, once
        if left.__class__ is Lit and right.__class__ is not Lit:
            op, left, right = _MIRRORED[op], right, left
        if right.__class__ is Lit and left.__class__ is not Lit:
            value = right.value
            cls = value.__class__
            text = self.literal(value)
            if cls is str:
                if op == "==":  # only a string equals a string
                    return f"({self._operand(left, env)[0]} == {text})"
                x, again = self._operand(left, env, twice=True)
                return f"(isinstance({x}, str) and {again} {op} {text})"
            if cls is bool and op in ("==", "!="):
                x, _ = self._operand(left, env)
                return f"({x} is {value if op == '==' else not value})"
            if cls in (int, float):
                x, again = self._operand(left, env, twice=True)
                return (
                    f"(isinstance({x}, (int, float)) and {again}.__class__ is not bool "
                    f"and {again} {op} {text})"
                )
        x, x_again = self._operand(left, env, twice=True)
        y, y_again = self._operand(right, env, twice=True)
        if op in ("==", "!="):
            # equality never raises, so the type rule can wait for a match
            return f"({x} {op} {y} and _comparable({op!r}, {x_again}, {y_again}))"
        # _comparable rejects null and the mixed types an ordering would raise on
        return f"(_comparable({op!r}, {x}, {y}) and {x_again} {op} {y_again})"

    def why(self, node: Any, env: dict) -> str:
        """The node's failure text as a Python expression, for where the node
        is false: the printed node, and the values of the fields it read."""
        cls = node.__class__
        if cls is And:
            texts = (f"None if {self.test(part, env)} else {self.why(part, env)}"
                     for part in node.parts)
            return f"_and_why({', '.join(texts)})"
        if cls is Or:  # every part failed
            return " + ' OR ' + ".join(self.why(part, env) for part in node.parts)
        failed = f"{print_expr(node)} failed"
        if cls is Not:
            return repr(f"{failed}: inner condition held")
        if cls is BoolConst:
            return repr(failed)
        if cls is Quant:
            row = self._name("_r")
            inner = {**env, node.name: (row, False)}
            return (
                f"_rows_why({failed!r}, {node.exists}, {self._binding(node.name)}, "
                f"lambda {row}: {self.test(node.body, inner)}, "
                f"lambda {row}: {self.why(node.body, inner)})"
            )
        operands = (node.left, node.right) if cls is Cmp else (node.operand,)
        values = [self._operand(operand, env)[0] for operand in operands]
        text, sep = repr(failed), " ("
        for operand, value in zip(operands, values):
            if operand.__class__ is FieldRef:
                label = f"{sep}{operand.root}.{operand.path} = "
                text += f" + {label!r} + _fmt({value})"
                sep = ", "
        if sep == ", ":
            text += " + ')'"
        if cls is Cmp:
            text += f" + _note({node.op!r}, {values[0]}, {values[1]})"
        return text


def _indent(lines: list[str], levels: int = 1) -> list[str]:
    return [" " * (4 * levels) + line for line in lines]


def _positions(em: Emitter, checks: list[tuple], explain: bool = False) -> list[str]:
    """Function body statements setting `bad` to the positions of the false
    (node, env) checks, () if none is; with `explain`, also `why` to their
    failure texts. The caller writes the return."""
    lines = ["bad = ()"] + (["why = []"] if explain else [])
    for i, (node, env) in enumerate(checks):
        then = [f"bad += ({i},)"]
        if explain:
            then.append(f"why.append({em.why(node, env)})")
        lines += em.branch(node, env, False, then)
    return lines


def compile_checks(invariants: list[Invariant], bind) -> Any:
    """One generated function checking invariants of one focal entity on a
    focal row: it returns () if every one holds, else (positions of those
    that fail, {binding name: rows}), the rows it joined for the row.

    An invariant whose body is a quantifier, or a NOT of one, is checked by
    a loop over its rows (Emitter.branch), not by any() or all() over a
    generator: the check runs once per call, and on a binding of a row or
    two the generator's frame is most of its cost.

    `bind(emitter)` gives each binding's rows as an expression of the
    function (see Emitter.rows); `row` is the focal row it reads them for.
    """
    em = Emitter()
    em.rows = bind(em)
    lines = _positions(em, [(inv.body, {inv.focal: ("row", True)}) for inv in invariants])
    items = ", ".join(f"{name!r}: {rows}" for name, rows in em.rows.items())
    return em.function("row", lines + ["if bad:", f"    return bad, {{{items}}}", "return bad"])


def _conjuncts(inv: Invariant) -> tuple:
    return inv.body.parts if inv.body.__class__ is And else (inv.body,)


class CompiledInvariant:
    """One invariant as generated code over a group.

    Calling it on a group gives the verdict. The group must expose `focal`
    (attribute map of the focal row) and `bindings` (binding name -> list
    of rows). One function of (focal row, bindings), generated on first
    use, gives the verdict, the explanation and the failing conjuncts: the
    failure text and the positions of the failing top-level conjuncts, no
    position where the invariant holds. It checks every conjunct, so one
    naming an unbound entity raises EvaluationError even after an earlier
    one failed.
    """

    __slots__ = ("invariant", "_diagnosis")

    def __init__(self, inv: Invariant):
        self.invariant = inv
        self._diagnosis = None

    def __call__(self, group: Any) -> bool:
        return not self._diagnosed(group)[1]

    def _diagnosed(self, group: Any) -> tuple[str, tuple]:
        if self._diagnosis is None:
            em = Emitter()
            env = {self.invariant.focal: ("row", True)}
            checks = [(part, env) for part in _conjuncts(self.invariant)]
            lines = _positions(em, checks, explain=True)
            self._diagnosis = em.function("row, b", lines + ["return ' AND '.join(why), bad"])
        return self._diagnosis(group.focal, group.bindings)

    def explain(self, group: Any) -> str:
        """Explanation of why this invariant fails on the group; "" where
        it holds."""
        return self._diagnosed(group)[0]

    def failing_conjuncts(self, group: Any) -> list[str]:
        """Printed top-level conjuncts that fail on the group.

        For a non-conjunctive body the whole printed body is returned when
        it fails.
        """
        return self.diagnose(group)[1]

    def diagnose(self, group: Any) -> tuple[str, list[str]]:
        """(explain, failing_conjuncts) of the group from one function."""
        why, bad = self._diagnosed(group)
        parts = _conjuncts(self.invariant)
        return why, [print_expr(parts[i]) for i in bad]


def compile_invariant(inv: Invariant) -> CompiledInvariant:
    """Compile once, then call the result on each group."""
    return CompiledInvariant(inv)


def evaluate(inv: Invariant, group: Any) -> Verdict:
    """Evaluate one invariant against one joined group, explaining a failure."""
    why, bad = compile_invariant(inv)._diagnosed(group)
    return Verdict(passed=not bad, explanation=why)


def explain(verdict: Verdict) -> str:
    """Human-readable account of a failed evaluation; empty when it passed."""
    return verdict.explanation
