"""Independent reference implementations used to freeze expected test values.

Everything in this module is written from the documented behaviour alone, in
the most obvious way possible (full scans, explicit recursion, nested loops),
so that agreement with the package is meaningful.  Nothing here imports from
apivet except plain data classes used as inputs, and for the invariant
evaluator the DSL's printer, scalar equality and error type.
"""

from __future__ import annotations

import itertools
import json
import math
import re

from apivet.dsl import (
    And,
    BoolConst,
    Cmp,
    FieldRef,
    InSet,
    Match,
    Not,
    NullCheck,
    Or,
    Quant,
    format_literal,
    print_expr,
)
from apivet.errors import EvaluationError
from apivet.values import values_equal


# --- binlog replay ----------------------------------------------------------


def replay_oracle_rows(events, t, key_cols=("id",)):
    """Full scan over a consistent stream; returns {key: row} strictly before t.

    Events are applied in (ts, ordinal) order.  An insert/update stores the
    after-image, a delete removes the key.  Events with ts >= t are invisible.
    Assumes a well-formed stream (insert, then updates, then delete per key).
    """

    def key_of(image):
        return tuple(image[c] for c in key_cols)

    state = {}
    ordered = sorted(events, key=lambda ev: (ev.ts, ev.ordinal))
    for ev in ordered:
        if ev.ts >= t:
            continue
        if ev.op == "delete":
            state.pop(key_of(ev.before), None)
        else:
            state[key_of(ev.after)] = dict(ev.after)
    return state


def universe_oracle(events, table, column):
    """Every value the column ever holds in an after-image, order-free."""
    seen = set()
    for ev in events:
        if ev.table != table or ev.op == "delete":
            continue
        value = ev.after.get(column)
        if value is None:
            continue
        seen.add(canonical_key(value))
    return seen


def canonical_key(value):
    """Hashable stand-in for join values; mirrors documented equality rules."""
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, (int, float)):
        return ("n", float(value))
    if isinstance(value, str):
        return ("s", value)
    return ("d", json.dumps(value, sort_keys=True, separators=(",", ":")))


# --- markov -----------------------------------------------------------------


def markov_oracle(sequences, alpha):
    """Count-and-normalize bigram model with additive smoothing.

    Returns (alphabet, probs) where probs[(src, dst)] uses
    (count + alpha) / (row_total + alpha * n) and the start symbol "^" heads
    every sequence.  alpha == 0 rows with no evidence fall back to uniform.
    """
    symbols = sorted({s for seq in sequences for s in seq})
    alphabet = ["^"] + symbols
    n = len(alphabet)
    counts = {(a, b): 0 for a in alphabet for b in alphabet}
    for seq in sequences:
        prev = "^"
        for sym in seq:
            counts[(prev, sym)] += 1
            prev = sym
    probs = {}
    for src in alphabet:
        row_total = sum(counts[(src, dst)] for dst in alphabet)
        denom = row_total + alpha * n
        for dst in alphabet:
            if denom > 0:
                probs[(src, dst)] = (counts[(src, dst)] + alpha) / denom
            else:
                probs[(src, dst)] = 1.0 / n
    return alphabet, probs


def markov_sequence_prob(probs, sequence):
    p = 1.0
    prev = "^"
    for sym in sequence:
        p *= probs[(prev, sym)]
        prev = sym
    return p


# --- hmm --------------------------------------------------------------------


def hmm_path_sum(pi, trans, emit, observed_indices):
    """P(observations) by brute-force enumeration over all state paths."""
    n_states = len(pi)
    total = 0.0
    length = len(observed_indices)
    for path in itertools.product(range(n_states), repeat=length):
        p = pi[path[0]] * emit[path[0]][observed_indices[0]]
        for i in range(1, length):
            p *= trans[path[i - 1]][path[i]] * emit[path[i]][observed_indices[i]]
        total += p
    return total


def forward_by_hand(pi, trans, emit, observed_indices):
    """Classic alpha recursion, written without numpy."""
    n_states = len(pi)
    alpha = [pi[s] * emit[s][observed_indices[0]] for s in range(n_states)]
    for obs in observed_indices[1:]:
        alpha = [
            sum(alpha[q] * trans[q][s] for q in range(n_states)) * emit[s][obs]
            for s in range(n_states)
        ]
    return sum(alpha)


# --- joins ------------------------------------------------------------------


def scalar_eq(a, b):
    """Join equality: None matches nothing, bool is not a number, 1 == 1.0."""
    if a is None or b is None:
        return False
    if isinstance(a, bool) or isinstance(b, bool):
        return type(a) is type(b) and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return float(a) == float(b)
    if type(a) is not type(b):
        return False
    return a == b


def db_join_oracle(events, column, value, t, key_cols=("id",)):
    """Nested loop: replay one table to just before t, keep matching rows."""
    state = replay_oracle_rows(events, t, key_cols)
    return [dict(row) for row in state.values() if scalar_eq(row.get(column), value)]


def api_join_oracle(calls, session_id, t, delta_ms):
    """All calls of the target api in (t - delta, t), same session, by scan."""
    rows = []
    for call in calls:
        if call["sessionId"] != session_id:
            continue
        if t - delta_ms < call["time"] < t:
            rows.append(dict(call))
    return rows


def env_join_oracle(env_records, session_id):
    for rec in env_records:
        if rec.sessionId == session_id:
            return [rec]
    return []


# --- sessions and windows ---------------------------------------------------


def session_sequence_oracle(events):
    """Sort by (time, id) then group api names per session."""
    ordered = sorted(events, key=lambda ev: (ev.time, ev.id))
    grouped = {}
    for ev in ordered:
        grouped.setdefault(ev.sessionId, []).append(ev.api)
    return grouped


def window_oracle(events, size):
    """Fixed-size id chunks in the order given."""
    ids = [ev.id for ev in events]
    return [ids[i : i + size] for i in range(0, len(ids), size)]


# --- projection -------------------------------------------------------------


def project_oracle(events, api, attribute_paths):
    """Brute-force per-event path walk for the instance table of one api.

    No type coercion: intended for corpora whose values already match the
    declared attribute types. Returns [(log_id, row)] in event order.
    """

    def get_path(ev, path):
        head, _, rest = path.partition(".")
        node = {"arguments": ev.arguments, "response": ev.response}.get(head)
        for seg in rest.split(".") if rest else []:
            if isinstance(node, dict):
                node = node.get(seg)
            else:
                return None
        return node

    rows = []
    for ev in events:
        if ev.api != api:
            continue
        row = {path: get_path(ev, path) for path in attribute_paths}
        row["time"] = ev.time
        row["sessionId"] = ev.sessionId
        rows.append((ev.id, row))
    return rows


# --- metrics ----------------------------------------------------------------


def metrics_oracle(flagged_ids, labels, window_size):
    """Window/trace scoring done with explicit set arithmetic.

    labels: records with .log_id, .label ("normal" | "attack"), .trace.
    Normal ids are chunked into fixed windows in label order; a window with
    any flagged member is one false positive. Each attack trace is one unit:
    a true positive if any member was flagged.
    """
    normal_ids = [r.log_id for r in labels if r.label == "normal"]
    traces = {}
    for r in labels:
        if r.label == "attack":
            traces.setdefault(r.trace, set()).add(r.log_id)
    windows = [
        set(normal_ids[i : i + window_size])
        for i in range(0, len(normal_ids), window_size)
    ]
    flagged = set(flagged_ids)
    fp = sum(1 for w in windows if w & flagged)
    tn = len(windows) - fp
    tp = sum(1 for members in traces.values() if members & flagged)
    fn = len(traces) - tp
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    return {
        "tp": tp,
        "fp": fp,
        "tn": tn,
        "fn": fn,
        "precision": precision,
        "recall": recall,
        "windows": len(windows),
        "traces": len(traces),
    }


# --- invariant evaluation ---------------------------------------------------
#
# The tree-walking evaluator that apivet.dsl's compiler replaced. It re-walks
# the AST for every question instead of running closures, and renders the
# explanation text directly instead of building trace nodes. It reuses the
# package's AST classes, printer and scalar equality.


def _resolve(operand, scope):
    if isinstance(operand, FieldRef):
        row = scope.get(operand.root)
        if row is None:
            raise EvaluationError(
                f"entity {operand.root!r} is not bound in this group"
            )
        return row.get(operand.path)
    return operand.value


def _cmp_values(op, a, b):
    if a is None or b is None:
        return False
    a_bool = isinstance(a, bool)
    b_bool = isinstance(b, bool)
    if a_bool or b_bool:
        if not (a_bool and b_bool) or op not in ("==", "!="):
            return False
        return (a is b) if op == "==" else (a is not b)
    a_num = isinstance(a, (int, float))
    b_num = isinstance(b, (int, float))
    if a_num != b_num:
        return False
    if not a_num and not (isinstance(a, str) and isinstance(b, str)):
        return False
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b


def _eval(node, scope, bindings):
    cls = node.__class__
    if cls is Cmp:
        return _cmp_values(node.op, _resolve(node.left, scope), _resolve(node.right, scope))
    if cls is Quant:
        rows = bindings.get(node.name)
        if rows is None:
            raise EvaluationError(f"entity {node.name!r} is not bound in this group")
        prev = scope.get(node.name)
        body = node.body
        try:
            if node.exists:
                for row in rows:
                    scope[node.name] = row
                    if _eval(body, scope, bindings):
                        return True
                return False
            for row in rows:
                scope[node.name] = row
                if not _eval(body, scope, bindings):
                    return False
            return True
        finally:
            if prev is None:
                scope.pop(node.name, None)
            else:
                scope[node.name] = prev
    if cls is And:
        return all(_eval(p, scope, bindings) for p in node.parts)
    if cls is Or:
        return any(_eval(p, scope, bindings) for p in node.parts)
    if cls is Not:
        return not _eval(node.expr, scope, bindings)
    if cls is NullCheck:
        value = _resolve(node.operand, scope)
        return (value is not None) if node.negated else (value is None)
    if cls is Match:
        value = _resolve(node.operand, scope)
        if not isinstance(value, str):
            return False
        return re.fullmatch(node.pattern, value) is not None
    if cls is InSet:
        value = _resolve(node.operand, scope)
        if value is None:
            return False
        return any(values_equal(value, item.value) for item in node.items)
    if cls is BoolConst:
        return node.value
    raise TypeError(f"not an expression node: {node!r}")


def _fmt_value(value):
    if value is None:
        return "NULL"
    return format_literal(value)


def _operand_detail(operand, scope):
    if isinstance(operand, FieldRef):
        value = _resolve(operand, scope)
        return f"{operand.root}.{operand.path} = {_fmt_value(value)}"
    return None


def _comparable(op, a, b):
    a_bool = isinstance(a, bool)
    b_bool = isinstance(b, bool)
    if a_bool or b_bool:
        return a_bool and b_bool and op in ("==", "!=")
    a_num = isinstance(a, (int, float))
    b_num = isinstance(b, (int, float))
    if a_num and b_num:
        return True
    return isinstance(a, str) and isinstance(b, str)


_MAX_TRACED_ROWS = 3


def _trace(node, scope, bindings):
    """Explanation text for a node known to evaluate false."""
    cls = node.__class__
    if cls in (Cmp, InSet, Match, NullCheck):
        operands = (node.left, node.right) if cls is Cmp else (node.operand,)
        details = [d for d in (_operand_detail(op, scope) for op in operands) if d]
        note = ""
        if cls is Cmp:
            a = _resolve(node.left, scope)
            b = _resolve(node.right, scope)
            if a is not None and b is not None and not _comparable(node.op, a, b):
                note = "; incompatible types"
        suffix = f" ({', '.join(details)})" if details else ""
        return f"{print_expr(node)} failed{suffix}{note}"
    if cls is And:
        return " AND ".join(
            _trace(p, scope, bindings)
            for p in node.parts
            if not _eval(p, scope, bindings)
        )
    if cls is Or:
        return " OR ".join(_trace(p, scope, bindings) for p in node.parts)
    if cls is Not:
        return f"NOT ({print_expr(node.expr)}) failed: inner condition held"
    if cls is Quant:
        rows = bindings.get(node.name)
        if rows is None:
            raise EvaluationError(f"entity {node.name!r} is not bound in this group")
        prev = scope.get(node.name)
        children = []
        try:
            if node.exists:
                for i, row in enumerate(rows[:_MAX_TRACED_ROWS]):
                    scope[node.name] = row
                    children.append(f"row[{i}]: {_trace(node.body, scope, bindings)}")
                label = (
                    f"EXISTS({node.name}: {print_expr(node.body)}) failed: "
                    f"{len(rows)} bound row(s)"
                )
            else:
                bad = 0
                for i, row in enumerate(rows):
                    scope[node.name] = row
                    if not _eval(node.body, scope, bindings):
                        bad += 1
                        if len(children) < _MAX_TRACED_ROWS:
                            children.append(
                                f"row[{i}]: {_trace(node.body, scope, bindings)}"
                            )
                label = (
                    f"FORALL({node.name}: {print_expr(node.body)}) failed: "
                    f"{bad} of {len(rows)} row(s) violated"
                )
        finally:
            if prev is None:
                scope.pop(node.name, None)
            else:
                scope[node.name] = prev
        return "; ".join([label] + children)
    if cls is BoolConst:
        return "FALSE failed"
    raise TypeError(f"not an expression node: {node!r}")


def eval_oracle(inv, group):
    """Whether `inv` holds on the group (`focal` row plus `bindings` rows)."""
    return _eval(inv.body, {inv.focal: group.focal}, group.bindings)


def explain_oracle(inv, group):
    """Explanation of a failing group; empty when the invariant holds."""
    if eval_oracle(inv, group):
        return ""
    return _trace(inv.body, {inv.focal: group.focal}, group.bindings)


def failing_conjuncts_oracle(inv, group):
    """Printed top-level conjuncts that fail; the whole body if not an AND."""
    scope = {inv.focal: group.focal}
    if isinstance(inv.body, And):
        return [
            print_expr(part)
            for part in inv.body.parts
            if not _eval(part, scope, group.bindings)
        ]
    if _eval(inv.body, scope, group.bindings):
        return []
    return [print_expr(inv.body)]


# --- misc -------------------------------------------------------------------


def value_overlap_oracle(api_values, table_values):
    """|A ∩ T| / |A| with canonical keys; empty A gives 0.0."""
    a = {canonical_key(v) for v in api_values if v is not None}
    t = {canonical_key(v) for v in table_values if v is not None}
    if not a:
        return 0.0
    return len(a & t) / len(a)


def regex_word_split(name):
    """camelCase / snake_case splitter used to check name-based matching."""
    parts = re.split(r"[_\W]+", name)
    words = []
    for part in parts:
        words.extend(
            w.lower() for w in re.findall(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z0-9]+|[A-Z]+", part) if w
        )
    return words


def close(a, b, tol=1e-9):
    return math.isclose(a, b, rel_tol=0.0, abs_tol=tol)
