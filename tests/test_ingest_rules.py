"""Ingest rules against their reference: logs and binlog, lenient and strict.

Records are drawn near the valid ones: each field is either right or wrong
in one of the ways a JSON producer gets it wrong (bool, float or negative
times, empty strings, non-document images, missing keys, JSON null, blank
lines), so most lines sit right on a rule's boundary.
"""

import json
import logging

from hypothesis import given, settings
from hypothesis import strategies as st

from apivet.binlog import parse_row_events
from apivet.errors import IngestError
from apivet.logstore import ingest_logs

from oracles import OracleReject, ingest_oracle, row_events_oracle

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

