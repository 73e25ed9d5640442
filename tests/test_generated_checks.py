"""Generated checks: corpus-level reports against the reference joins and
evaluator of oracles.py, and invariant text that tries to escape the code
it is translated into."""

import builtins
import random
from dataclasses import replace

import pytest

from apivet.binlog import ingest_binlog
from apivet.detector import check_corpus, compile_invariant
from apivet.dsl import MAX_NESTING, And, FieldRef, Not, Or, Quant, parse_invariant
from apivet.errors import DslSyntaxError, EvaluationError
from apivet.logstore import ingest_logs
from apivet.relations import API_API, API_DB, API_ENV, Relationship
from apivet.schema import (
    flatten_api_signature,
    load_env_descriptor,
    merge_bundle,
    parse_create_table,
)

from conftest import api_line, env_line, row_event
from generators import FakeGroup, random_invariant
from oracles import (
    api_join_oracle,
    db_join_oracle,
    env_join_oracle,
    eval_oracle,
    explain_oracle,
    project_oracle,
)

CALL_FIELDS = ("arguments.x", "arguments.n", "arguments.f", "arguments.b", "response.status")
FIELDS = {
    "call": CALL_FIELDS,
    "items": ("id", "owner", "qty", "state"),
    "prev": ("arguments.x", "response.status"),
    "Env": ("userId", "role"),
}
ITEM_KEYS = ("i1", "i2", "i3", "i4")
WORDS = ("paid", "unpaid", "ok", "u1", "u2", "")
SESSIONS = ("s1", "s2")
PREV_DELTA = 50
SELF_DELTA = 30

RELATIONSHIPS = [
    Relationship(API_DB, "call", "arguments.x", "items", "owner"),
    Relationship(API_API, "call", "arguments.x", "prev", "arguments.x", delta_ms=PREV_DELTA),
    # a link to the focal API itself: its binding is named like the focal
    Relationship(API_API, "call", "arguments.x", "call", "arguments.x", delta_ms=SELF_DELTA),
    Relationship(API_ENV, "call", "arguments.x", "Env", "userId"),
]


def bundle():
    call = flatten_api_signature(
        "call",
        {"x": "string", "n": "int", "f": "float", "b": "bool"},
        {"status": "string"},
    )
    prev = flatten_api_signature("prev", {"x": "string"}, {"status": "string"})
    items = parse_create_table(
        "CREATE TABLE items (id VARCHAR(8) PRIMARY KEY, owner VARCHAR(8), "
        "qty INT, state VARCHAR(8));"
    )
    env = load_env_descriptor({"sessionId": "string", "userId": "string", "role": "string"})
    return merge_bundle([call, prev] + items + [env])


def maybe(rng, value):
    """The value, null, or (for a key of a document) nothing at all."""
    roll = rng.random()
    return value if roll < 0.8 else (None if roll < 0.9 else KeyError)


def document(rng, fields):
    out = {}
    for name, value in fields.items():
        value = maybe(rng, value)
        if value is not KeyError:
            out[name] = value
    return out


def random_corpus(rng):
    lines = []
    for _ in range(rng.randrange(4, 14)):
        arguments = document(rng, {
            "x": rng.choice(WORDS), "n": rng.randrange(-3, 4),
            "f": rng.choice([0.5, -2.25, 3.0]), "b": rng.random() < 0.5,
        })
        response = document(rng, {"status": rng.choice(WORDS)})
        lines.append(api_line("call", rng.randrange(0, 100), rng.choice(SESSIONS),
                              arguments, response))
    for _ in range(rng.randrange(0, 8)):
        lines.append(api_line("prev", rng.randrange(0, 100), rng.choice(SESSIONS),
                              {"x": rng.choice(WORDS)}, {"status": rng.choice(WORDS)}))
    for sid in SESSIONS:
        for _ in range(rng.randrange(0, 3)):
            fields = {"sessionId": sid, **document(rng, {
                "userId": rng.choice(WORDS), "role": rng.choice(WORDS)})}
            time = None if rng.random() < 0.4 else rng.randrange(0, 100)
            lines.append(env_line(sid, fields, time))
    rng.shuffle(lines)
    return lines


def random_binlog(rng):
    """Well-formed per key: an insert, updates, maybe a delete; distinct ts."""
    events = []
    times = rng.sample(range(0, 100), 40)
    for key in ITEM_KEYS:
        if rng.random() < 0.2:
            continue
        stamps = sorted(times.pop() for _ in range(rng.randrange(1, 6)))
        row = None
        for i, ts in enumerate(stamps):
            after = {"id": key, "owner": rng.choice(WORDS), "qty": rng.randrange(0, 4),
                     "state": rng.choice(WORDS)}
            if i == 0:
                events.append(("insert", ts, None, after))
            elif i == len(stamps) - 1 and rng.random() < 0.3:
                events.append(("delete", ts, row, None))
                break
            else:
                events.append(("update", ts, row, after))
            row = after
    events.sort(key=lambda event: event[1])
    return [
        row_event("items", op, ts, before=before, after=after, ordinal=i)
        for i, (op, ts, before, after) in enumerate(events)
    ]


def _remap(node, rng, names):
    """The expression with its binding names renamed and every field
    reference pointed at a field its root has."""
    cls = node.__class__
    if cls is FieldRef:
        root = names.get(node.root, node.root)
        return FieldRef(root=root, path=rng.choice(FIELDS[root]))
    if cls is Quant:
        return replace(node, name=names[node.name], body=_remap(node.body, rng, names))
    if cls is Not:
        return Not(_remap(node.expr, rng, names))
    if cls in (And, Or):
        return cls(tuple(_remap(part, rng, names) for part in node.parts))
    if hasattr(node, "left"):
        return replace(node, left=_remap(node.left, rng, names),
                       right=_remap(node.right, rng, names))
    if hasattr(node, "operand"):
        return replace(node, operand=_remap(node.operand, rng, names))
    return node


def random_corpus_invariant(rng, ident):
    inv = random_invariant(rng, ident)
    names = {"rows_a": rng.choice(["items", "call"]), "rows_b": rng.choice(["prev", "Env"])}
    return replace(inv, body=_remap(inv.body, rng, names))


def write_order(row_events, t):
    """(ts, ordinal) of each live key's last write before t: a bucket lists
    its rows in this order."""
    last = {}
    for event in sorted(row_events, key=lambda e: (e.ts, e.ordinal)):
        if event.ts >= t:
            continue
        if event.op == "delete":
            last.pop(event.before["id"], None)
        else:
            last[event.after["id"]] = (event.ts, event.ordinal)
    return last


def reference_report(corpus, row_events, invariants):
    """Violations as (log id, invariant id, time, session, explanation),
    from the reference joins and the tree-walking evaluator."""
    calls = project_oracle(corpus.events, "call", dict.fromkeys(CALL_FIELDS))[0]
    prev_calls = [row for _, row in sorted(
        project_oracle(corpus.events, "prev", dict.fromkeys(FIELDS["prev"]))[0],
        key=lambda item: (item[1]["time"], item[0]),
    )]
    self_calls = [row for _, row in sorted(calls, key=lambda item: (item[1]["time"], item[0]))]
    out = []
    for log_id, focal in calls:
        t, sid, x = focal["time"], focal["sessionId"], focal["arguments.x"]
        order = write_order(row_events, t)
        items = db_join_oracle(row_events, "owner", x, t) if x is not None else []
        items.sort(key=lambda row: order[row["id"]])
        env = [
            {path: record.fields.get(path) for path in FIELDS["Env"]}
            for record in env_join_oracle(corpus.env_records, sid, t)
        ]
        bindings = {
            "items": items,
            "prev": api_join_oracle(prev_calls, sid, t, PREV_DELTA),
            "call": api_join_oracle(self_calls, sid, t, SELF_DELTA),
            "Env": env,
        }
        group = FakeGroup(log_id, focal, bindings)
        for inv in invariants:
            if not eval_oracle(inv, group):
                out.append((log_id, inv.id, t, sid, explain_oracle(inv, group)))
    return sorted(out, key=lambda v: (v[0], v[1]))


def detect(bundle_, lines, row_events, invariants, jobs):
    corpus = ingest_logs(lines)
    tables = ingest_binlog(row_events, bundle_, mode="strict")
    result = check_corpus(bundle_, corpus, tables, RELATIONSHIPS, invariants, jobs=jobs)
    got = [(v.log_id, v.invariant_id, v.time, v.session_id, v.explanation)
           for v in result.violations]
    return corpus, got


def test_reports_match_the_oracles_on_random_corpora():
    rng = random.Random(20240611)
    bundle_ = bundle()
    violations = 0
    for trial in range(120):
        lines = random_corpus(rng)
        row_events = random_binlog(rng)
        invariants = [random_corpus_invariant(rng, f"inv_{trial}_{i}") for i in range(6)]
        corpus, got = detect(bundle_, lines, row_events, invariants, rng.choice([1, 2, 3]))
        assert got == reference_report(corpus, row_events, invariants), trial
        violations += len(got)
    assert violations > 500  # enough failures to exercise the explanations


# --- hostile invariant text ----------------------------------------------------

HOSTILE_STRINGS = [
    '"',
    "'",
    "\\",
    "\\'",
    '"); import builtins; builtins.PWNED = 1 #',
    "'); import builtins; builtins.PWNED = 1 #",
    "\"); __import__('builtins').PWNED = 1 #",
    "a\nb\\n\r\t\x00",
    "{0} {x!r} %s",
]


def quoted(text):
    import json

    return json.dumps(text)


def check_both_paths(lines, text, expected_log_ids):
    """The invariant's report through check_corpus and its verdicts through
    compile_invariant, both against the oracles; no payload ran."""
    inv = parse_invariant(text)
    bundle_ = bundle()
    row_events = [
        row_event("items", "insert", 1, after={"id": "i1", "owner": "u1", "qty": 2,
                                              "state": "paid"}, ordinal=0),
        row_event("items", "insert", 2, after={"id": "i2", "owner": "u1", "qty": 3,
                                              "state": "unpaid"}, ordinal=1),
    ]
    corpus, got = detect(bundle_, lines, row_events, [inv], 1)
    assert got == reference_report(corpus, row_events, [inv])
    assert [v[0] for v in got] == expected_log_ids
    fn = compile_invariant(inv)
    for log_id, focal in project_oracle(corpus.events, "call", dict.fromkeys(CALL_FIELDS))[0]:
        group = FakeGroup(log_id, focal, {"items": [], "prev": [], "call": [], "Env": []})
        assert fn(group) == eval_oracle(inv, group)
        if not fn(group):
            assert fn.explain(group) == explain_oracle(inv, group)
    assert not hasattr(builtins, "PWNED")


@pytest.mark.parametrize("literal", HOSTILE_STRINGS)
def test_string_literals_stay_data(literal):
    lines = [
        api_line("call", 10, "s1", {"x": literal}),
        api_line("call", 20, "s1", {"x": literal + "!"}),
    ]
    check_both_paths(
        lines,
        f"INVARIANT hostile ON call CATEGORY format WHERE call.arguments.x == {quoted(literal)}",
        [1],
    )
    check_both_paths(
        lines,
        f"INVARIANT hostile ON call CATEGORY format "
        f"WHERE call.arguments.x IN [{quoted(literal)}, \"u1\"]",
        [1],
    )
    check_both_paths(
        lines,
        f"INVARIANT hostile ON call CATEGORY format WHERE call.arguments.x < {quoted(literal)}",
        [0, 1],
    )


@pytest.mark.parametrize("pattern", ['a"b', "a'b", "[\"']+", "\\\\\"\\)"])
def test_patterns_holding_quotes_stay_data(pattern):
    lines = [
        api_line("call", 10, "s1", {"x": pattern.replace("\\", "")}),
        api_line("call", 20, "s1", {"x": "plain"}),
    ]
    text = f"INVARIANT quoted ON call CATEGORY format WHERE call.arguments.x MATCHES {quoted(pattern)}"
    inv = parse_invariant(text)
    corpus, got = detect(bundle(), lines, [], [inv], 1)
    assert got == reference_report(corpus, [], [inv])
    assert 1 in [v[0] for v in got]


@pytest.mark.parametrize(
    "field, literal, value, op, holds",
    [
        ("n", str(2**60 + 1), 2**60, "==", False),
        ("n", str(2**60 + 1), 2**60 + 1, "==", True),
        ("n", str(2**60 + 1), 2**60, "<", True),
        ("n", "-0.0", 0, "==", True),
        ("f", "-0.0", 0.0, ">=", True),
        ("n", "-0.0", -1, ">", False),
        ("n", "1e308", 2**1023, "<", True),
        ("f", "1e308", 1e308, "==", True),
        ("f", "-1e308", -1e308, "<=", True),
        ("f", "1e308", -1e308, "!=", True),
    ],
)
def test_extreme_numbers_compare_exactly(field, literal, value, op, holds):
    lines = [api_line("call", 10, "s1", {field: value}), api_line("call", 20, "s1", {field: None})]
    text = f"INVARIANT big ON call CATEGORY common_sense WHERE call.arguments.{field} {op} {literal}"
    corpus, got = detect(bundle(), lines, [], [parse_invariant(text)], 1)
    assert got == reference_report(corpus, [], [parse_invariant(text)])
    # null never compares
    assert [v[0] for v in got] == ([1] if holds else [0, 1])


@pytest.mark.parametrize(
    "body",
    [
        # the self link's binding is named like the focal API: inside the
        # quantifier `call` is the earlier call, outside it the focal one
        'EXISTS(call: call.arguments.x == "u1") AND call.arguments.x == "u2"',
        "FORALL(call: call.arguments.n < 5) OR call.arguments.n IS NULL",
        'EXISTS(call: EXISTS(call: call.response.status == "paid"))',
        # an inner quantifier rebinding an outer one's name
        "EXISTS(items: EXISTS(items: items.qty == 3) AND items.state == \"paid\")",
        'FORALL(items: FORALL(items: items.owner == "u1") AND items.qty > 2)',
        "EXISTS(prev: EXISTS(call: call.arguments.x == prev.arguments.x))",
    ],
)
def test_rebound_names_shadow_and_restore(body):
    lines = [
        api_line("call", 10, "s1", {"x": "u1", "n": 1}, {"status": "paid"}),
        api_line("prev", 12, "s1", {"x": "u2"}, {"status": "paid"}),
        api_line("call", 15, "s1", {"x": "u2", "n": 7}, {"status": "unpaid"}),
        api_line("call", 20, "s1", {"x": "u1", "n": 2}, {"status": "paid"}),
        api_line("call", 25, "s1", {"x": "u2"}, {"status": "paid"}),
    ]
    text = f"INVARIANT shadow ON call CATEGORY database WHERE {body}"
    inv = parse_invariant(text)
    row_events = [
        row_event("items", "insert", 1, after={"id": "i1", "owner": "u1", "qty": 2,
                                              "state": "paid"}, ordinal=0),
        row_event("items", "insert", 2, after={"id": "i2", "owner": "u1", "qty": 3,
                                              "state": "unpaid"}, ordinal=1),
    ]
    corpus, got = detect(bundle(), lines, row_events, [inv], 1)
    assert got == reference_report(corpus, row_events, [inv])


@pytest.mark.parametrize(
    "name", ["row", "b", "s", "bad", "_f", "_v1", "_k2", "_r3", "_t4", "_rows", "_unbound",
             "_comparable", "_value_key", "_fmt", "_note", "_and_why", "_rows_why", "any",
             "all", "bool", "None", "True", "lambda"],
)
def test_names_that_collide_with_generated_ones(name):
    # entity, binding and field names reach the code only as strings
    inv = parse_invariant(
        f"INVARIANT clash ON {name} CATEGORY database WHERE "
        f'{name}.{name} == "v" AND EXISTS({name}__x: {name}__x.{name} == {name}.{name}) '
        f"AND FORALL({name}: {name}.{name} IS NOT NULL)"
    )
    group = FakeGroup(1, {name: "v"}, {f"{name}__x": [{name: "v"}], name: [{name: 1}]})
    fn = compile_invariant(inv)
    assert fn(group) and eval_oracle(inv, group)
    group.bindings[name].append({})
    assert not fn(group)
    assert fn.explain(group) == explain_oracle(inv, group)


@pytest.mark.parametrize(
    "opening, leaf, closing",
    [
        ("NOT ", "f.a == 2", ""),
        ("(f.a == 1 AND ", "f.b == 3", ")"),
        ("EXISTS(r: ", "r.a == 2", ")"),
        ("EXISTS(r: f.a == 2 OR f.b == 2 AND ", 'r.a MATCHES "x" AND r.a IN [1, "a"]', ")"),
    ],
)
def test_deepest_accepted_nesting_compiles(opening, leaf, closing):
    # the parser's nesting limit keeps generated code within Python's own
    body = opening * MAX_NESTING + leaf + closing * MAX_NESTING
    inv = parse_invariant(f"INVARIANT deep ON f CATEGORY format WHERE {body}")
    fn = compile_invariant(inv)
    for row in ({"a": 1, "b": 2}, {"a": 2, "b": 3}):
        group = FakeGroup(1, row, {"r": [{"a": 1}]})  # one row: no blow-up
        assert fn(group) == eval_oracle(inv, group)
        if not fn(group):
            assert fn.explain(group) == explain_oracle(inv, group)
    with pytest.raises(DslSyntaxError, match="nested deeper"):
        parse_invariant(f"INVARIANT deep ON f CATEGORY format WHERE {opening}{body}{closing}")


@pytest.mark.parametrize(
    "body",
    ['"abc" IS NULL', "5 IS NOT NULL", "TRUE IS NULL", '"a" MATCHES "a"', "1 == 1.0",
     '"a" IN ["a", 1]', "TRUE == call.arguments.b", "1.5 < call.arguments.f",
     '"b" > call.arguments.x', "2 != call.arguments.n", '1 < "a"', "TRUE < 1", "2.5 >= 2",
     '"b" > "a"'],
)
def test_literal_operands_compile_cleanly(body, recwarn):
    inv = parse_invariant(f"INVARIANT lit ON call CATEGORY format WHERE {body}")
    fn = compile_invariant(inv)
    for focal in ({"arguments.b": True, "arguments.f": 2.0, "arguments.x": "a",
                   "arguments.n": 2}, {}):
        group = FakeGroup(1, focal, {})
        assert fn(group) == eval_oracle(inv, group)
        if not fn(group):
            assert fn.explain(group) == explain_oracle(inv, group)
    assert not [w for w in recwarn if issubclass(w.category, SyntaxWarning)]


def test_quantifier_over_an_unbound_name_raises_when_reached():
    lines = [api_line("call", 10, "s1", {"x": "u1"}), api_line("call", 20, "s1", {"x": "u2"})]
    reached = parse_invariant(
        'INVARIANT ghost ON call CATEGORY database WHERE EXISTS(ghost: ghost.id == "g")'
    )
    with pytest.raises(EvaluationError, match="ghost"):
        detect(bundle(), lines, [], [reached], 1)
    # short-circuited before the quantifier, as the tree-walking evaluator does
    skipped = parse_invariant(
        'INVARIANT ghost ON call CATEGORY database '
        'WHERE call.arguments.x IS NOT NULL OR EXISTS(ghost: ghost.id == "g")'
    )
    assert detect(bundle(), lines, [], [skipped], 1)[1] == []
