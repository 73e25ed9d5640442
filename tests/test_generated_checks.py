"""Generated checks: corpus-level reports against the reference joins and
evaluator of oracles.py, and invariant text that tries to escape the code
it is translated into."""

import builtins
import random
import sys
from collections import Counter
from dataclasses import replace

import pytest

from apivet.benchgen import (
    binlog_lines,
    corpus_lines,
    generate_normal,
    inject_double_refund,
    scenario_bundle,
)
from apivet.binlog import ingest_binlog, parse_row_events
from apivet.config import PipelineConfig
from apivet.detector import check_corpus, compile_invariant
from apivet.dsl import (
    MAX_NESTING,
    And,
    FieldRef,
    Not,
    Or,
    Quant,
    compile_checks,
    parse_invariant,
    quantifiers,
)
from apivet.errors import DslSyntaxError, EvaluationError
from apivet.logstore import ingest_logs
from apivet.pipeline import run_generation, run_inference
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


def reference_groups(corpus, row_events):
    """One group per call, in log id order, from the reference joins."""
    calls = project_oracle(corpus.events, "call", dict.fromkeys(CALL_FIELDS))[0]
    prev_calls = [row for _, row in sorted(
        project_oracle(corpus.events, "prev", dict.fromkeys(FIELDS["prev"]))[0],
        key=lambda item: (item[1]["time"], item[0]),
    )]
    self_calls = [row for _, row in sorted(calls, key=lambda item: (item[1]["time"], item[0]))]
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
        yield FakeGroup(log_id, focal, bindings)


def reference_report(corpus, row_events, invariants):
    """Violations as (log id, invariant id, time, session, explanation),
    from the reference joins and the tree-walking evaluator."""
    out = []
    for group in reference_groups(corpus, row_events):
        t, sid = group.focal["time"], group.focal["sessionId"]
        for inv in invariants:
            if not eval_oracle(inv, group):
                out.append((group.log_id, inv.id, t, sid, explain_oracle(inv, group)))
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
    "name", ["row", "b", "s", "bad", "why", "_f", "_v1", "_k2", "_r3", "_t4", "_rows", "_unbound",
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


# --- the shapes of generated checks --------------------------------------------
# compile_checks tests a quantifier at a statement position (an invariant's
# whole body, or a NOT of one) with a loop; each case, and the equality rule
# the checks test, is pinned against the reference evaluator

QUANTIFIED = {"items": 'items.state == "paid"', "prev": 'prev.response.status == "ok"',
              "Env": 'Env.role == "admin"'}


def statement_quantifiers(name):
    """EXISTS, FORALL, NOT EXISTS and NOT FORALL of one binding, as invariants."""
    over = f"{name}: {QUANTIFIED[name]}"
    bodies = {"exists": f"EXISTS({over})", "forall": f"FORALL({over})",
              "not_exists": f"NOT (EXISTS({over}))", "not_forall": f"NOT (FORALL({over}))"}
    return [parse_invariant(f"INVARIANT {form}_{name} ON call CATEGORY database WHERE {body}")
            for form, body in bodies.items()]


def check_positions(invariants, focal, bindings, shape=list):
    """compile_checks' positions on a focal row, with each binding's rows in
    `shape` (a DB bucket's dict view, an API window's list, an env tuple),
    and the reference evaluator's, per invariant; an EvaluationError from
    either is returned as its message."""
    def bind(em):
        return {name: em.const(shape(rows)) for name, rows in bindings.items()}

    group = FakeGroup(0, focal, bindings)
    try:
        expected = tuple(i for i, inv in enumerate(invariants) if not eval_oracle(inv, group))
    except EvaluationError as exc:
        expected = str(exc)
    try:
        got = compile_checks(invariants, bind)(focal)
    except EvaluationError as exc:
        got = str(exc)
    return got, expected


def db_view(rows):
    return {i: row for i, row in enumerate(rows)}.values()


ROW_SETS = {
    "none": [],
    "one_holds": ["hold"],
    "one_fails": ["fail"],
    "three_hold": ["hold", "hold", "hold"],
    "three_fail": ["fail", "null", "fail"],
    "first_fails": ["fail", "hold", "hold"],
    "last_fails": ["hold", "hold", "null"],
    "one_of_three_holds": ["fail", "hold", "fail"],
}
ROW_VALUES = {
    "items": {"hold": {"state": "paid"}, "fail": {"state": "unpaid"}, "null": {}},
    "prev": {"hold": {"response.status": "ok"}, "fail": {"response.status": "no"},
             "null": {"response.status": None}},
    "Env": {"hold": {"role": "admin"}, "fail": {"role": 1}, "null": {"role": None}},
}


@pytest.mark.parametrize("rows", ROW_SETS.values(), ids=ROW_SETS.keys())
@pytest.mark.parametrize("name, shape", [("items", db_view), ("prev", list), ("Env", tuple)])
def test_statement_quantifiers_match_the_oracle(name, shape, rows):
    invariants = statement_quantifiers(name)
    # NOT NOT and the quantifiers of another binding, around them: positions move
    invariants = [parse_invariant(
        f"INVARIANT twice ON call CATEGORY database "
        f"WHERE NOT (NOT (EXISTS({name}: {QUANTIFIED[name]})))"
    )] + invariants + statement_quantifiers("items" if name != "items" else "prev")
    bindings = {"items": [], "prev": [], "Env": [],
                name: [ROW_VALUES[name][kind] for kind in rows]}
    got, expected = check_positions(invariants, {"arguments.x": "u1"}, bindings, shape)
    assert got == expected


def test_statement_quantifiers_match_the_oracle_through_the_joins():
    """DB, API and env bindings of 0, 1 and 3 rows, as the sweep builds them."""
    items = [("i1", "u1", "paid"), ("i2", "u3", "paid"), ("i3", "u3", "paid"),
             ("i4", "u3", "paid"), ("i5", "u4", "paid"), ("i6", "u4", "unpaid"),
             ("i7", "u4", "paid"), ("i8", "u5", "unpaid")]
    row_events = [
        row_event("items", "insert", 1 + i, ordinal=i,
                  after={"id": key, "owner": owner, "qty": 1, "state": state})
        for i, (key, owner, state) in enumerate(items)
    ]
    lines = [env_line("s1", {"sessionId": "s1", "userId": "u1", "role": "admin"}, 5),
             env_line("s2", {"sessionId": "s2", "userId": "u1", "role": "guest"}, 5)]
    for sid, statuses in (("s1", ["ok"]), ("s2", ["ok", "ok", "ok"]),
                          ("s3", ["ok", "no", "ok"]), ("s4", [])):
        lines += [api_line("prev", 100 + i, sid, {"x": "u1"}, {"status": status})
                  for i, status in enumerate(statuses)]
        lines += [api_line("call", 110, sid, {"x": x}) for x in ("u0", "u1", "u3", "u4", "u5")]
    invariants = [inv for name in QUANTIFIED for inv in statement_quantifiers(name)]
    corpus, got = detect(bundle(), lines, row_events, invariants, 1)
    assert got == reference_report(corpus, row_events, invariants)
    sizes = {name: {len(group.bindings[name]) for group in reference_groups(corpus, row_events)}
             for name in QUANTIFIED}
    assert sizes == {"items": {0, 1, 3}, "prev": {0, 1, 3}, "Env": {0, 1}}


UNBOUND = [
    'EXISTS(ghost: ghost.v == "a")',
    "EXISTS(ghost: TRUE)",
    'FORALL(ghost: ghost.v == "a")',
    'NOT EXISTS(ghost: ghost.v == "a")',
    'NOT (FORALL(ghost: ghost.v == "a"))',
    'call.arguments.x IS NOT NULL OR EXISTS(ghost: ghost.v == "a")',
    'EXISTS(items: EXISTS(ghost: ghost.v == items.state))',
    'FORALL(items: NOT EXISTS(ghost: TRUE))',
]


@pytest.mark.parametrize("body", UNBOUND)
@pytest.mark.parametrize("x", ["u1", None])
@pytest.mark.parametrize("items", [[], [{"state": "paid"}]], ids=["no_items", "one_item"])
def test_an_unbound_name_raises_where_the_oracle_does(body, x, items):
    invariants = [
        parse_invariant('INVARIANT before ON call CATEGORY database WHERE '
                        'FORALL(items: items.state == "paid")'),
        parse_invariant(f"INVARIANT ghost ON call CATEGORY database WHERE {body}"),
    ]
    got, expected = check_positions(invariants, {"arguments.x": x}, {"items": items})
    assert got == expected


EQUALITY_VALUES = [("1", 1), (True, 1), (1, True), (1, 1.0), (None, None), ("1", "1"),
                   (False, False), (0, False), (2.5, 2.5), ("1", None)]
EQUALITY_BODIES = [
    "call.arguments.x {op} call.arguments.y",
    "EXISTS(items: items.v {op} call.arguments.x)",
    "EXISTS(items: call.arguments.x {op} items.w)",
    "FORALL(items: items.v {op} items.w)",
    "NOT EXISTS(items: items.w {op} call.arguments.y)",
    'call.arguments.x {op} "1"',
    "call.arguments.x {op} 1",
    "call.arguments.x {op} 1.0",
    "call.arguments.x {op} TRUE",
    "call.arguments.x IN [1, \"x\", FALSE]",
    "call.arguments.y IN [\"1\", 2.5]",
]
LITERAL_BODIES = ['237 {op} "cancelled"', '"1" {op} 1', "TRUE {op} 1", "1 {op} 1.0",
                  '"a" {op} "a"', "-1 {op} -1", '-1.5 {op} "x"', "FALSE {op} 0"]


@pytest.mark.parametrize("op", ["==", "!="])
@pytest.mark.parametrize("x, y", EQUALITY_VALUES)
def test_equality_matches_the_oracle(op, x, y):
    invariants = [
        parse_invariant(f"INVARIANT eq{i} ON call CATEGORY format WHERE {body.format(op=op)}")
        for i, body in enumerate(EQUALITY_BODIES + LITERAL_BODIES)
    ]
    focal = {"arguments.x": x, "arguments.y": y}
    for items in ([], [{"v": x, "w": y}], [{"v": y, "w": x}, {"v": x}, {"w": y}]):
        got, expected = check_positions(invariants, focal, {"items": items})
        assert got == expected, items
        group = FakeGroup(0, focal, {"items": items})
        for inv in invariants:
            fn = compile_invariant(inv)
            assert fn(group) == eval_oracle(inv, group)
            if not fn(group):
                assert fn.explain(group) == explain_oracle(inv, group)


def test_statement_quantifiers_make_no_generator_frames():
    """A check of a benchgen corpus runs the shop's quantifiers as loops:
    none of its calls makes a generator frame."""
    shop = scenario_bundle()

    def load(bench):
        corpus = ingest_logs(corpus_lines(bench)[0], mode="strict")
        events = parse_row_events(binlog_lines(bench), mode="strict")
        return corpus, ingest_binlog(events, shop, mode="strict")

    corpus, tables = load(generate_normal(40, seed=5))
    relationships = run_inference(shop, corpus, tables, PipelineConfig()).relationships
    invariants = run_generation(shop, corpus, tables, relationships, PipelineConfig()).invariants
    bodies = [inv.body.expr if inv.body.__class__ is Not else inv.body for inv in invariants]
    assert sum(body.__class__ is Quant for body in bodies) >= 10
    assert not [inv for inv in invariants if any(
        depth > 1 for _, depth in quantifiers(inv.body))]

    eval_corpus, eval_tables = load(inject_double_refund(
        generate_normal(40, seed=6, first_index=1000), 5, seed=1))
    frames = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == "<invariant>":
            frames[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        result = check_corpus(shop, eval_corpus, eval_tables, relationships, invariants)
    finally:
        sys.setprofile(None)
    assert result.violations  # explanations ran too
    assert frames["_f"] >= result.logs_processed
    assert frames["<genexpr>"] == 0
