"""Independent reference implementations used to freeze expected test values.

Everything in this module is written from the documented behaviour alone, in
the most obvious way possible (full scans, explicit recursion, nested loops),
so that agreement with the package is meaningful.  Nothing here imports from
apivet except plain data classes used as inputs, and for the invariant
evaluator the DSL's node classes, printer and error type.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import sys

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


# --- scalar equality --------------------------------------------------------


def values_equal(a, b):
    """Scalar equality; null never equals anything, booleans only match booleans."""
    if a is None or b is None:
        return False
    a_bool = isinstance(a, bool)
    b_bool = isinstance(b, bool)
    if a_bool or b_bool:
        return a_bool and b_bool and a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    return type(a) is type(b) and a == b


# --- binlog replay ----------------------------------------------------------


def replay_oracle_rows(events, t, key_cols=("id",)):
    """Full scan over a consistent stream; returns {key: row} strictly before t.

    Events are applied in (ts, ordinal) order.  An insert/update stores the
    after-image, a delete removes the key, and an update that changes the
    key moves the row to its new key.  Events with ts >= t are invisible.
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
            continue
        if ev.op == "update" and key_of(ev.before) != key_of(ev.after):
            state.pop(key_of(ev.before), None)
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
        return ("n", value)
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


def env_join_oracle(env_records, session_id, t):
    """The record a call at t sees, by scan: of the session's records with
    time < t, the greatest (time, file position); no time counts as -inf."""
    best, best_key = None, None
    for pos, rec in enumerate(env_records):
        if rec.sessionId != session_id:
            continue
        rec_t = float("-inf") if rec.time is None else rec.time
        if rec_t < t and (best_key is None or (rec_t, pos) > best_key):
            best, best_key = rec, (rec_t, pos)
    return [] if best is None else [best]


# --- sessions ---------------------------------------------------------------


def session_sequence_oracle(events):
    """Sort by (time, id) then group api names per session."""
    ordered = sorted(events, key=lambda ev: (ev.time, ev.id))
    grouped = {}
    for ev in ordered:
        grouped.setdefault(ev.sessionId, []).append(ev.api)
    return grouped


def session_event_oracle(bench, session_id, api_name):
    """The first normal-labelled call of a session to an API, by a scan of
    every call in generation order; None if there is none."""
    for event in bench.api_events:
        if (
            event["sessionId"] == session_id
            and event["api"] == api_name
            and event["label"] == "normal"
        ):
            return event
    return None


# --- ingest -----------------------------------------------------------------


class OracleReject(Exception):
    """Strict mode's first malformed line: (line number, message)."""


def _non_negative_int(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _non_empty_str(value):
    return isinstance(value, str) and value != ""


def _api_problem(record):
    if not _non_empty_str(record.get("api")):
        return "api name must be a non-empty string"
    if not isinstance(record.get("arguments"), dict):
        return "arguments must be a document"
    if not isinstance(record.get("response"), dict):
        return "response must be a document"
    if not _non_negative_int(record.get("time")):
        return "time must be a non-negative integer"
    if not _non_empty_str(record.get("sessionId")):
        return "sessionId must be a non-empty string"
    return None


def _env_problem(record):
    if not _non_empty_str(record.get("sessionId")) or not isinstance(record.get("fields"), dict):
        return "env record requires sessionId and fields"
    if "time" in record and not _non_negative_int(record["time"]):
        return "env time must be a non-negative integer"
    return None


def _row_problem(record):
    if not _non_empty_str(record.get("table")):
        return "table must be a non-empty string"
    op = record.get("op")
    if op not in ("insert", "update", "delete"):
        return f"unknown op {op!r}"
    if not _non_negative_int(record.get("ts")):
        return "ts must be a non-negative integer"
    before, after = record.get("before"), record.get("after")
    images = {
        "insert": isinstance(after, dict) and before is None,
        "delete": isinstance(before, dict) and after is None,
        "update": isinstance(before, dict) and isinstance(after, dict),
    }
    if not images[op]:
        return {
            "insert": "insert carries only an after image",
            "delete": "delete carries only a before image",
            "update": "update carries both images",
        }[op]
    return None


def json_lines_oracle(lines):
    """The JSON Lines rule, one line at a time: (line number, value or None,
    problem) per non-blank line, as json.loads decodes that line alone."""
    for line_no, line in enumerate(lines, start=1):
        if line.strip() == "":
            continue
        try:
            yield line_no, json.loads(line), None
        except json.JSONDecodeError as exc:
            yield line_no, None, f"invalid JSON ({exc.msg})"
        except ValueError:  # an integer literal longer than int() takes
            yield line_no, None, (
                f"invalid JSON (integer of more than {sys.get_int_max_str_digits()} digits)"
            )
        except RecursionError:
            yield line_no, None, "invalid JSON (nested too deeply)"


def ingest_oracle(lines, mode):
    """The log rules: api events as (id, api, arguments, response, time,
    sessionId), env records as (sessionId, fields, time) and the skipped
    count. Strict mode raises OracleReject(line_no, message) instead."""
    events, env, skipped = [], [], 0
    for line_no, record, problem in json_lines_oracle(lines):
        if problem is None:
            kind = record.get("kind") if isinstance(record, dict) else None
            if kind == "api":
                problem = _api_problem(record)
                if problem is None:
                    events.append((len(events), record["api"], record["arguments"],
                                   record["response"], record["time"], record["sessionId"]))
            elif kind == "env":
                problem = _env_problem(record)
                if problem is None:
                    env.append((record["sessionId"], record["fields"], record.get("time")))
            elif record is None:
                problem = "malformed record"
            else:
                problem = f"unknown record kind {kind!r}"
        if problem is not None:
            if mode == "strict":
                raise OracleReject(line_no, problem)
            skipped += 1
    return events, env, skipped


def row_events_oracle(lines, mode):
    """The binlog rules: events as (table, op, ts, before, after, ordinal)
    and the skipped count. Strict mode raises OracleReject instead."""
    events, skipped = [], 0
    for line_no, record, problem in json_lines_oracle(lines):
        if problem is None:
            if isinstance(record, dict):
                problem = _row_problem(record)
            else:
                problem = "row event must be a document"
        if problem is None:
            events.append((record["table"], record["op"], record["ts"],
                           record.get("before"), record.get("after"), len(events)))
        elif mode == "strict":
            raise OracleReject(line_no, problem)
        else:
            skipped += 1
    return events, skipped


# --- benchgen serialization ---------------------------------------------------


def bench_lines_oracle(bench):
    """A bench's log, label and binlog lines: one json.dumps per record,
    the merged log order from one stable sort by (time, seq), labels from a
    second sort of the api events alone."""
    by_time = lambda e: (e["time"], e["seq"])
    logs = []
    for event in sorted(bench.env_events + bench.api_events, key=by_time):
        if "api" in event:
            record = {"kind": "api", "api": event["api"], "arguments": event["arguments"],
                      "response": event["response"], "time": event["time"],
                      "sessionId": event["sessionId"]}
        else:
            record = {"kind": "env", "sessionId": event["sessionId"],
                      "fields": event["fields"]}
        logs.append(json.dumps(record))
    labels = []
    for log_id, event in enumerate(sorted(bench.api_events, key=by_time)):
        record = {"log_id": log_id, "label": event["label"]}
        if event["trace"]:
            record["trace"] = event["trace"]
        labels.append(json.dumps(record))
    binlog = [
        json.dumps({"table": e["table"], "op": e["op"], "ts": e["ts"],
                    "before": e["before"], "after": e["after"]})
        for e in sorted(bench.row_events, key=lambda e: (e["ts"], e["seq"]))
    ]
    return logs, labels, binlog


# --- projection -------------------------------------------------------------


def labels_oracle(lines, mode):
    """The label rules: records as (log_id, label, trace), one per log id.
    Strict mode raises OracleReject instead of dropping a line."""
    out = []
    for line_no, record, problem in json_lines_oracle(lines):
        if problem is None:
            record = record if isinstance(record, dict) else {}
            log_id, label, trace = record.get("log_id"), record.get("label"), record.get("trace")
            if not (isinstance(log_id, int) and not isinstance(log_id, bool)
                    and label in ("normal", "attack")
                    and (trace is None or isinstance(trace, str))):
                problem = "malformed label record"
            elif log_id in [kept[0] for kept in out]:
                problem = f"log_id {log_id} is labelled twice"
            else:
                out.append((log_id, label, trace))
                continue
        if mode == "strict":
            raise OracleReject(line_no, problem)
    return out


def coerce_oracle(value, tag):
    """(value, mismatch) of one leaf bound for an attribute of type `tag`,
    by the rules values.py documents: null passes, a document keeps its
    canonical JSON, numbers stringify for strings, digit strings parse for
    integers, booleans match only booleans, anything else is a mismatch."""
    if value is None:
        return None, False
    if tag == "document":
        return json.dumps(value, sort_keys=True, separators=(",", ":")), False
    if isinstance(value, bool):
        return (value, False) if tag == "boolean" else (None, True)
    if tag in ("string", "enum"):
        if isinstance(value, str):
            return value, False
        if isinstance(value, (int, float)):
            return str(value), False
    elif tag in ("integer", "timestamp-millis"):
        if isinstance(value, int):
            return value, False
        if isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+", value):
            return int(value), False
    elif tag == "float":
        if isinstance(value, (int, float)):
            return float(value), False
    return None, True


def project_oracle(events, api, attributes):
    """Brute-force per-event path walk for the instance table of one api.

    `attributes` maps each attribute path to its type tag; a path whose tag
    is None keeps its raw value. Returns ([(log_id, row)] in event order,
    the number of coercion mismatches).
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

    rows, mismatches = [], 0
    for ev in events:
        if ev.api != api:
            continue
        row = {}
        for path, tag in attributes.items():
            value = get_path(ev, path)
            if tag is not None:
                value, mismatch = coerce_oracle(value, tag)
                mismatches += mismatch
            row[path] = value
        row["time"] = ev.time
        row["sessionId"] = ev.sessionId
        rows.append((ev.id, row))
    return rows, mismatches


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


# --- reports ----------------------------------------------------------------


def violation_to_dict(record):
    return {
        "invariant_id": record.invariant_id,
        "category": record.category,
        "log_id": record.log_id,
        "api": record.api,
        "time": record.time,
        "session_id": record.session_id,
        "explanation": record.explanation,
    }


def report_to_dict(result, invariants_checked):
    """The detection report as one dict: detector.write_report streams
    json.dumps(report_to_dict(...), indent=2) + "\n"."""
    return {
        "summary": {
            "logs_processed": result.logs_processed,
            "groups_built": result.groups_built,
            "evaluations": result.evaluations,
            "invariants_checked": invariants_checked,
            "violations": len(result.violations),
        },
        "violations": [violation_to_dict(v) for v in result.violations],
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
