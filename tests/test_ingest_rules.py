"""Ingest rules against their reference: logs, binlog and labels, lenient
and strict.

Records are drawn near the valid ones: each field is either right or wrong
in one of the ways a JSON producer gets it wrong (bool, float or negative
times, empty strings, non-document images, missing keys, JSON null, blank
lines), so most lines sit right on a rule's boundary.
"""

import json
import logging
import sys

import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st

from apivet import fileio
from apivet.binlog import parse_row_events, read_binlog_file
from apivet.errors import IngestError
from apivet.logstore import ingest_logs, parse_labels, read_label_file, read_log_file

from oracles import (
    OracleReject,
    ingest_oracle,
    json_lines_oracle,
    labels_oracle,
    row_events_oracle,
)

MISSING = object()  # the key is left out of the record

# near-valid values of each field: the valid ones first, then wrong ones
TIMES = [0, 1, 17, 2**63, -1, True, False, 1.0, 2.5, "5", None, MISSING]
NAMES = ["login", "s1", "", 0, True, None, ["s1"], MISSING]
DOCUMENTS = [{}, {"a": 1}, {"a": {"b": None}}, [], [{"a": 1}], "x", 0, None, MISSING]
KINDS = ["api", "env", "API", "", None, 1, MISSING]
OPS = ["insert", "update", "delete", "upsert", "", None, 0, MISSING]
IMAGES = [{"id": "o1"}, {"id": "o1", "status": "paid"}, {}, None, [], "o1", MISSING]
# lines that are not one JSON document of fields
ODD_LINES = ["", " ", "\t\n", "\n", "null", "[]", "[1]", '"api"', "5", "true",
             "{", "not json", '{"kind": "api",}', "{}"]


def record_of(draw, fields):
    record = {}
    for name, choices in fields.items():
        value = draw(st.sampled_from(choices))
        if value is not MISSING:
            record[name] = value
    return record


@st.composite
def log_lines(draw):
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        shape = draw(st.sampled_from(["api", "env", "odd"]))
        if shape == "odd":
            lines.append(draw(st.sampled_from(ODD_LINES)))
            continue
        fields = {"kind": KINDS, "sessionId": NAMES, "time": TIMES}
        if shape == "api":
            fields.update(api=NAMES, arguments=DOCUMENTS, response=DOCUMENTS)
        else:
            fields.update(fields=DOCUMENTS)
        record = record_of(draw, fields)
        # most records keep the kind their fields are drawn for
        if draw(st.integers(0, 3)):
            record["kind"] = shape
        lines.append(json.dumps(record) + draw(st.sampled_from(["", "\n", " \n"])))
    return lines


@st.composite
def binlog_lines(draw):
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(ODD_LINES)))
            continue
        record = record_of(draw, {"table": ["orders", "", 3, None, MISSING],
                                  "op": OPS, "ts": TIMES,
                                  "before": IMAGES, "after": IMAGES})
        lines.append(json.dumps(record) + draw(st.sampled_from(["", "\n"])))
    return lines


def strict_outcome(run, lines):
    """What strict mode does: accept a result, or reject a line with a
    message, written as IngestError writes it."""
    try:
        return ("accepted", run(lines, "strict"))
    except IngestError as exc:
        return ("rejected", exc.line_no, str(exc))
    except OracleReject as exc:
        line_no, message = exc.args
        return ("rejected", line_no, f"line {line_no}: {message}")


class WarningCounts(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@settings(max_examples=300, deadline=None)
@given(lines=log_lines())
def test_log_ingest_matches_the_reference(lines):
    events, env, skipped = ingest_oracle(lines, "lenient")
    corpus = ingest_logs(lines)
    assert [(e.id, e.api, e.arguments, e.response, e.time, e.sessionId)
            for e in corpus.events] == events
    assert [(r.sessionId, r.fields, r.time) for r in corpus.env_records] == env
    assert corpus.skipped == skipped

    def package(lines, mode):
        corpus = ingest_logs(lines, mode=mode)
        return [(e.id, e.api) for e in corpus.events], len(corpus.env_records)

    def reference(lines, mode):
        events, env, _ = ingest_oracle(lines, mode)
        return [(e[0], e[1]) for e in events], len(env)

    assert strict_outcome(package, lines) == strict_outcome(reference, lines)


@settings(max_examples=300, deadline=None)
@given(lines=binlog_lines())
def test_binlog_parse_matches_the_reference(lines):
    events, skipped = row_events_oracle(lines, "lenient")
    handler = WarningCounts()
    logger = logging.getLogger("apivet.binlog")
    logger.addHandler(handler)
    try:
        got = parse_row_events(lines)
    finally:
        logger.removeHandler(handler)
    assert [(e.table, e.op, e.ts, e.before, e.after, e.ordinal) for e in got] == events
    warned = [f"skipped {skipped} malformed binlog line(s)"] if skipped else []
    assert handler.messages == warned

    def package(lines, mode):
        return [e.ordinal for e in parse_row_events(lines, mode=mode)]

    def reference(lines, mode):
        return [e[5] for e in row_events_oracle(lines, mode)[0]]

    assert strict_outcome(package, lines) == strict_outcome(reference, lines)


API = json.dumps({"kind": "api", "api": "login", "arguments": {}, "response": {},
                  "time": 1, "sessionId": "s1"})
ROW = json.dumps({"table": "orders", "op": "insert", "ts": 1, "before": None,
                  "after": {"id": "o1"}})


def label_line(log_id):
    return json.dumps({"log_id": log_id, "label": "normal"})


LABEL = label_line(0)

# lines the property tests may never draw, each around a valid record {r}:
# every one must get what json.loads gives it
DECODER_CASES = {
    "blank_after_valid": ["{r}\n", "   \n", "\t\n", "{r}\n"],
    "padded": [" {r}\n", "{r}  \n", "\t{r}\t\n", "{r} "],
    "extra_data": ["{r}\n", "{r}}", "5x", "1 2\n", "{r} {r}\n", "{r}\n"],
    "bom": ["\ufeff{r}\n", "{r}\n"],
    "nan": ["NaN\n", "[NaN]\n", "-Infinity\n", "{r}\n"],
    "crlf": ["{r}\r\n", "\r\n", "{r} \r\n", "{r}\r\n"],
    "lone_cr": ["{r}\r", "{r}\n"],
    # str.isspace() holds for both, yet json.loads calls them extra data
    "non_json_space": ["{r}\x0b\n", "{r}\u2028\n", "{r}\n"],
    "no_final_newline": ["{r}\n", "{r}"],
    "nested_too_deeply": ["[" * 100_000 + "\n", "{r}\n"],
    # int() refuses the literal with a ValueError that is no JSONDecodeError
    "integer_past_the_digit_limit": ["{r}\n", "1" * 5000 + "\n", "[" + "9" * 4301 + "]\n",
                                     "{r}\n"],
}


def case_lines(case, record):
    return [line.replace("{r}", record) for line in DECODER_CASES[case]]


@pytest.mark.parametrize("case", sorted(DECODER_CASES))
def test_decoder_edge_lines_match_the_reference(case):
    lines = case_lines(case, API)
    events, env, skipped = ingest_oracle(lines, "lenient")
    corpus = ingest_logs(lines)
    assert [(e.id, e.api, e.time, e.sessionId) for e in corpus.events] == [
        (e[0], e[1], e[4], e[5]) for e in events
    ]
    assert corpus.skipped == skipped

    def logs(lines, mode):
        return [e.id for e in ingest_logs(lines, mode=mode).events]

    assert strict_outcome(logs, lines) == strict_outcome(
        lambda lines, mode: [e[0] for e in ingest_oracle(lines, mode)[0]], lines
    )

    lines = case_lines(case, ROW)
    events, _ = row_events_oracle(lines, "lenient")
    assert [e.ordinal for e in parse_row_events(lines)] == [e[5] for e in events]

    def binlog(lines, mode):
        return [e.ordinal for e in parse_row_events(lines, mode=mode)]

    assert strict_outcome(binlog, lines) == strict_outcome(
        lambda lines, mode: [e[5] for e in row_events_oracle(lines, mode)[0]], lines
    )

    # one log id per line: a log id labelled twice is refused however its
    # line decodes
    lines = [line.replace("{r}", label_line(i)) for i, line in enumerate(DECODER_CASES[case])]

    def labels(lines, mode):
        return [(r.log_id, r.label, r.trace) for r in parse_labels(lines, mode=mode)]

    assert labels(lines, "lenient") == labels_oracle(lines, "lenient")
    assert strict_outcome(labels, lines) == strict_outcome(labels_oracle, lines)


# a record of each kind with one of its ints past the digit limit
HUGE = "1" * 5000
HUGE_LINES = {
    "logs": API.replace('"time": 1', f'"time": {HUGE}'),
    "binlog": ROW.replace('"ts": 1', f'"ts": {HUGE}'),
    "labels": LABEL.replace('"log_id": 0', f'"log_id": {HUGE}'),
}
HUGE_PARSERS = {
    "logs": (lambda lines, mode: ingest_logs(lines, mode=mode).events, "apivet.logstore"),
    "binlog": (lambda lines, mode: parse_row_events(lines, mode=mode), "apivet.binlog"),
    "labels": (lambda lines, mode: parse_labels(lines, mode=mode), "apivet.logstore"),
}
VALID_LINES = {"logs": API, "binlog": ROW, "labels": LABEL}


def valid_lines(kind, n):
    """n valid lines of one kind; label lines label one log id each."""
    if kind == "labels":
        return [label_line(i) for i in range(n)]
    return [VALID_LINES[kind]] * n


@pytest.mark.parametrize("kind", sorted(HUGE_LINES))
def test_an_integer_past_the_digit_limit_is_one_malformed_line(kind, caplog):
    parse, logger = HUGE_PARSERS[kind]
    first, last = valid_lines(kind, 2)
    lines = [first, HUGE_LINES[kind], last]
    with caplog.at_level(logging.WARNING, logger=logger):
        assert len(parse(lines, "lenient")) == 2
    assert caplog.messages == [f"skipped 1 malformed {kind.rstrip('s')} line(s)"]
    with pytest.raises(IngestError) as err:
        parse(lines, "strict")
    limit = sys.get_int_max_str_digits()
    assert str(err.value) == f"line 2: invalid JSON (integer of more than {limit} digits)"
    assert err.value.line_no == 2


def test_a_crlf_file_reads_as_its_lf_twin(tmp_path):
    lines = case_lines("crlf", API)
    crlf, lf = tmp_path / "crlf.jsonl", tmp_path / "lf.jsonl"
    crlf.write_bytes("".join(lines).encode())
    lf.write_bytes("".join(lines).replace("\r\n", "\n").encode())
    got, want = read_log_file(str(crlf)), read_log_file(str(lf))
    assert [(e.id, e.api) for e in got.events] == [(e.id, e.api) for e in want.events]
    assert len(got.events) == 3 and got.skipped == want.skipped == 0


FILE_READERS = {
    "logs": (lambda path, mode: read_log_file(path, mode=mode).events, "apivet.logstore"),
    "binlog": (lambda path, mode: read_binlog_file(path, mode=mode), "apivet.binlog"),
    "labels": (lambda path, mode: read_label_file(path, mode=mode), "apivet.logstore"),
}


@pytest.mark.parametrize("kind", sorted(FILE_READERS))
@pytest.mark.parametrize("bad_line_no", [2, 300])
def test_a_line_that_is_not_utf8_is_one_malformed_line(kind, bad_line_no, tmp_path, caplog):
    # 300 lines: a bad line 2 spoils the first batch, a bad last line the
    # second; its neighbours hold raw UTF-8 that is not ASCII
    read, logger = FILE_READERS[kind]
    good = [line.encode() + b"\n" for line in valid_lines(kind, 299)]
    for i in (0, 2):
        good[i] = good[i].replace(b"}\n", b', "note": "caf\xc3\xa9"}\n')
    lines = good[: bad_line_no - 1] + [b"\xff\xfe\n"] + good[bad_line_no - 1 :]
    path = tmp_path / f"{kind}.jsonl"
    path.write_bytes(b"".join(lines).rstrip(b"\n"))
    with caplog.at_level(logging.WARNING, logger=logger):
        assert len(read(str(path), "lenient")) == 299
    assert caplog.messages == [f"skipped 1 malformed {kind.rstrip('s')} line(s)"]
    with pytest.raises(IngestError) as err:
        read(str(path), "strict")
    assert str(err.value) == f"line {bad_line_no}: invalid UTF-8"
    assert err.value.line_no == bad_line_no


def test_json_lines_refuses_a_surrogate_and_keeps_other_text():
    # read_json_lines passes each byte that is not UTF-8 as a lone surrogate
    lines = ['"caf\u00e9"', '"\udcff"', '"\\udcff"', '"a\ud800"']
    assert decoded(fileio.json_lines, lines) == [
        (1, repr("caf\u00e9"), None),
        (2, "None", "invalid UTF-8"),
        (3, repr("\udcff"), None),  # an escape in the text is JSON's to decode
        (4, "None", "invalid UTF-8"),
    ]


# --- the decoder against the json.loads loop --------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# JSON whitespace, then what str.isspace() or str.strip() take and JSON not
PADDING = st.text(st.sampled_from(
    [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x85", "\xa0", "\u2028", "\u3000"]
), max_size=3)


@st.composite
def decoder_lines(draw):
    text = json.dumps(draw(JSON_VALUES), ensure_ascii=draw(st.booleans()))
    text = draw(PADDING) + text + draw(PADDING)
    shape = draw(st.sampled_from(["whole", "cut", "second_value", "bom"]))
    if shape == "cut":
        text = text[: draw(st.integers(0, len(text)))]
    elif shape == "second_value":
        text += draw(PADDING) + json.dumps(draw(JSON_VALUES))
    elif shape == "bom":
        text = "\ufeff" + text
    return text + draw(st.sampled_from(["\n", "\r\n", "\r", ""]))


def decoded(decode, lines):
    # repr tells 1 from 1.0 and True, and makes NaN equal to itself
    return [(line_no, repr(value), problem) for line_no, value, problem in decode(lines)]


# lines the whole-batch rule must not vouch for, each beside its neighbours:
# blank ones, constants, two values, a string or array that would run into
# the next line, what str.isspace() takes and JSON not, and a lone "\r"
BATCH_EDGE_LINES = [
    "", " ", "\t\r\n", "\n", "NaN", "[Infinity]\n", '{"a": -Infinity}', "1, 2",
    '{"x": "}', '{"}', "1],[2", "\ufeff{}", "\x0b", "{}\x0b", "\r", "{}\r",
    "[1", "2]", "2], 5, 6", '{"kind": "api"}\n',
]


@settings(max_examples=500, deadline=None)
@given(lines=st.lists(decoder_lines() | st.sampled_from(BATCH_EDGE_LINES), max_size=9),
       batch=st.integers(1, 4))
# an array opened on one line and closed on the next: one value for two
# lines, and with values enough after it that only the separators' places tell
@example(lines=["[1", "2]"], batch=2)
@example(lines=["[1", "2], 5, 6", "3"], batch=3)
@example(lines=['{"x": "}', '{"}', "1],[2"], batch=3)
def test_json_lines_is_the_json_loads_loop(lines, batch):
    # batches of 1 to 4 lines, so most draws cross a batch boundary
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "BATCH_LINES", batch)
        assert decoded(fileio.json_lines, lines) == decoded(json_lines_oracle, lines)


class RemainderTest:
    """A stand-in for fileio._LINE_ENDS that takes a remainder by a test."""

    def __init__(self, test):
        self.test = test

    def __contains__(self, rest):
        return self.test(rest)


@pytest.mark.parametrize("test", [
    pytest.param(lambda rest: rest == "" or rest.isspace(), id="isspace"),
    pytest.param(lambda rest: rest.strip() == "", id="strip"),
])
def test_a_whitespace_remainder_test_is_caught(monkeypatch, test):
    monkeypatch.setattr(fileio, "_LINE_ENDS", RemainderTest(test))
    lines = case_lines("non_json_space", API)
    assert decoded(fileio.json_lines, lines) != decoded(json_lines_oracle, lines)
    # and the property test's lines find one by themselves: find() raises
    # if no drawn line tells the two decoders apart
    find(
        decoder_lines(),
        lambda line: decoded(fileio.json_lines, [line]) != decoded(json_lines_oracle, [line]),
        settings=settings(max_examples=2000, database=None),
    )


# --- batches against the lines alone ----------------------------------------


def nested(depth):
    return "[" * depth + "]" * depth


def test_a_line_at_the_nesting_limit_decodes_as_alone(monkeypatch):
    # the deepest array the reference decodes from this frame; a batch holds
    # it one level deeper, so that batch must be decoded line by line
    low, high = 1, 100_000
    while low < high:
        depth = (low + high + 1) // 2
        if decoded(json_lines_oracle, [nested(depth)])[0][2] is None:
            low = depth
        else:
            high = depth - 1
    lines = ["{}", nested(low), nested(low - 1), "{}", nested(low + 5)]
    per_line = []
    original = fileio._decode_lines
    monkeypatch.setattr(fileio, "BATCH_LINES", 2)
    monkeypatch.setattr(fileio, "_decode_lines",
                        lambda batch, first: per_line.append(first) or original(batch, first))
    want = decoded(json_lines_oracle, lines)
    assert want[1][2] is None and want[4][2] == "invalid JSON (nested too deeply)"
    assert decoded(fileio.json_lines, lines) == want
    assert per_line[0] == 1


def test_lines_of_one_batch_share_their_keys():
    lines = ['{"sessionId": "s1", "arguments": {"loginId": "a"}}\n',
             '{"sessionId": "s2", "arguments": {"loginId": "b"}}\n']
    (_, first, _), (_, second, _) = fileio.json_lines(lines)
    assert first == json.loads(lines[0]) and second == json.loads(lines[1])
    for a, b in zip(first, second):
        assert a is b
    assert next(iter(first["arguments"])) is next(iter(second["arguments"]))
