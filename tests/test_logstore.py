"""Log store: ingest, projection, session sequences, labels."""

import json
import logging

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from apivet.errors import IngestError, StoreLookupError
from apivet.joins import JoinStores
from apivet.logstore import (
    EnvRecord,
    LabelRecord,
    LogCorpus,
    LogEvent,
    env_history,
    ingest_logs,
    parse_labels,
    project_instances,
    read_label_file,
    read_log_file,
    session_sequences,
)
from apivet.schema import API, ENV, Attribute, EntityType, SchemaBundle, SemanticType
from apivet.sources import flatten_api_signature

from conftest import api_line, env_line
from oracles import coerce_oracle, project_oracle, session_sequence_oracle


class TestIngest:
    def test_ids_are_ingest_ordinals(self):
        lines = [
            api_line("b", 20, "s1"),
            api_line("a", 10, "s1"),
            api_line("c", 30, "s2"),
        ]
        corpus = ingest_logs(lines)
        assert [(e.id, e.api) for e in corpus.events] == [(0, "b"), (1, "a"), (2, "c")]
        assert corpus.skipped == 0

    def test_env_records_and_blank_lines(self):
        lines = [
            "",
            env_line("s1", {"sessionId": "s1", "userId": "u1"}),
            "   ",
            api_line("ping", 5, "s1"),
        ]
        corpus = ingest_logs(lines)
        assert len(corpus.events) == 1
        assert len(corpus.env_records) == 1
        assert corpus.env_records[0].fields["userId"] == "u1"
        assert corpus.env_records[0].time is None

    def test_env_time_is_kept(self):
        corpus = ingest_logs([env_line("s1", {"sessionId": "s1"}, time=0)], mode="strict")
        assert corpus.env_records[0].time == 0

    @pytest.mark.parametrize(
        "bad",
        [
            "not json at all",
            json.dumps({"kind": "api", "api": "", "arguments": {}, "response": {}, "time": 1, "sessionId": "s"}),
            json.dumps({"kind": "api", "api": "f", "arguments": [], "response": {}, "time": 1, "sessionId": "s"}),
            json.dumps({"kind": "api", "api": "f", "arguments": {}, "response": {}, "time": -1, "sessionId": "s"}),
            json.dumps({"kind": "api", "api": "f", "arguments": {}, "response": {}, "time": True, "sessionId": "s"}),
            json.dumps({"kind": "api", "api": "f", "arguments": {}, "response": {}, "time": 1, "sessionId": ""}),
            json.dumps({"kind": "env", "sessionId": "s"}),
            json.dumps({"kind": "env", "sessionId": "s", "fields": {}, "time": -1}),
            json.dumps({"kind": "env", "sessionId": "s", "fields": {}, "time": False}),
            json.dumps({"kind": "env", "sessionId": "s", "fields": {}, "time": 1.5}),
            json.dumps({"kind": "env", "sessionId": "s", "fields": {}, "time": None}),
            json.dumps({"kind": "mystery"}),
            json.dumps([1, 2, 3]),
        ],
    )
    def test_malformed_lines(self, bad):
        corpus = ingest_logs([bad, api_line("ok", 1, "s1")])
        assert corpus.skipped == 1
        assert [e.api for e in corpus.events] == ["ok"]
        with pytest.raises(IngestError):
            ingest_logs([bad], mode="strict")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ingest_logs([], mode="fast")

    def test_read_log_file(self, tmp_path):
        path = tmp_path / "logs.jsonl"
        path.write_text(api_line("f", 1, "s1") + "\n", encoding="utf-8")
        corpus = read_log_file(path)
        assert len(corpus.events) == 1


class TestEnvBySession:
    def test_last_record_wins(self):
        corpus = ingest_logs(
            [
                env_line("s1", {"sessionId": "s1", "v": 1}),
                env_line("s1", {"sessionId": "s1", "v": 2}),
                env_line("s1", {"sessionId": "s1", "v": 3}, time=5),
                env_line("s2", {"sessionId": "s2", "v": 9}),
            ]
        )
        untimed, timed = env_history(corpus.env_records)
        # the last untimed line wins; a timed one joins the session's history
        assert untimed["s1"].fields["v"] == 2
        assert untimed["s2"].fields["v"] == 9
        assert list(timed) == ["s1"] and timed["s1"][0] == [5]


def project(events, entity):
    """One entity's table from the one-pass projection."""
    return project_instances(events, [entity])[entity.name]


def oracle_table(events, entity):
    attributes = {
        attr.path: attr.type.tag
        for attr in entity.attributes
        if attr.path not in ("time", "sessionId")
    }
    return project_oracle(events, entity.name, attributes)


def typed(rows):
    """Rows with each value's class beside it: True == 1 and 1 == 1.0 in
    Python, but a projection must keep them apart."""
    return [(i, {k: (type(v), v) for k, v in row.items()}) for i, row in rows]


class Doc(dict):
    """A dict subclass, as a caller building LogEvents directly may pass."""


TAGS = [
    SemanticType("string"),
    SemanticType("enum", ("a", "b")),
    SemanticType("integer"),
    SemanticType("timestamp-millis"),
    SemanticType("float"),
    SemanticType("boolean"),
    SemanticType("document"),
]


def every_tag_entity(name):
    """An API entity with one attribute per tag on a one-leaf argument path,
    a nested argument path and a one-leaf response path."""
    attrs = []
    for semantic in TAGS:
        leaf = semantic.tag.replace("-", "_")
        attrs += [
            Attribute(f"arguments.{leaf}", semantic),
            Attribute(f"arguments.deep.{leaf}", semantic),
            Attribute(f"response.{leaf}", semantic),
        ]
    attrs += [Attribute("time", SemanticType("timestamp-millis")),
              Attribute("sessionId", SemanticType("string"))]
    return EntityType(name, API, attrs)


LEAVES = [semantic.tag.replace("-", "_") for semantic in TAGS]
# a leaf of every class json.loads yields, with the edge cases of coercion
SAMPLE_VALUES = [
    None, True, False, 0, -7, 2**63, 2**70, 1.0, -0.0, 2.5, 1e300,
    "", "a", "7", "+7", "-0", "007", "7.5", "1e3", " 7", "7\n",
    [], [1, "a"], {}, {"b": 1, "a": [None]},
]
json_values = (
    st.sampled_from(SAMPLE_VALUES)
    | st.integers(-(2**70), 2**70)
    | st.integers(-(2**70), 2**70).map(str)
    | st.floats(allow_nan=False)
    | st.text(max_size=3)
)


@st.composite
def documents(draw):
    """A call document: some leaves present, `deep` a dict, a dict subclass,
    a non-dict node or absent, and sometimes the whole document a Doc or
    not a dict at all."""
    doc = draw(st.dictionaries(st.sampled_from(LEAVES), json_values, max_size=len(LEAVES)))
    deep = draw(st.sampled_from(["dict", "doc", "value", "absent"]))
    if deep in ("dict", "doc"):
        inner = draw(st.dictionaries(st.sampled_from(LEAVES), json_values, max_size=4))
        doc["deep"] = Doc(inner) if deep == "doc" else inner
    elif deep == "value":
        doc["deep"] = draw(json_values)
    # a document that is not a dict has no leaves to read
    shape = draw(st.sampled_from(["dict", "doc", "value"]))
    if shape == "value":
        return draw(json_values)
    return Doc(doc) if shape == "doc" else doc


@st.composite
def call_events(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    return [
        LogEvent(i, draw(st.sampled_from(["f", "g", "other"])), draw(documents()),
                 draw(documents()), draw(st.integers(0, 50)), "s1")
        for i in range(n)
    ]


def every_tag_env_entity():
    """An environment entity with one attribute per tag."""
    attrs = [Attribute(leaf, semantic) for leaf, semantic in zip(LEAVES, TAGS)]
    return EntityType("Env", ENV, [*attrs, Attribute("sessionId", SemanticType("string"))])


@st.composite
def env_records(draw):
    return [
        EnvRecord(draw(st.sampled_from(["s1", "s2"])),
                  draw(st.dictionaries(st.sampled_from(LEAVES), json_values,
                                       max_size=len(LEAVES))),
                  draw(st.none() | st.integers(0, 50)))
        for _ in range(draw(st.integers(min_value=0, max_value=6)))
    ]


class TestProjection:
    @settings(max_examples=100, deadline=None)
    @given(events=call_events())
    def test_one_pass_matches_the_oracle_for_every_tag_and_class(self, events):
        entities = [every_tag_entity("f"), every_tag_entity("g")]
        tables = project_instances(events, entities)
        assert sorted(tables) == ["f", "g"]
        for entity in entities:
            rows, mismatches = oracle_table(events, entity)
            assert typed(tables[entity.name].rows) == typed(rows)
            assert tables[entity.name].mismatches == mismatches

    @settings(max_examples=100, deadline=None)
    @given(records=env_records(), only=st.none() | st.frozensets(st.sampled_from(LEAVES)))
    def test_env_projection_matches_the_oracle_for_every_tag_and_class(self, records, only):
        entity = every_tag_env_entity()
        stores = JoinStores(SchemaBundle([entity]), LogCorpus(events=[], env_records=records), {})
        tags = {attr.path: attr.type.tag for attr in entity.attributes
                if only is None or attr.path in only}

        def oracle_row(record):
            return {path: coerce_oracle(record.fields.get(path), tag)[0]
                    for path, tag in tags.items()}

        def typed_row(row):
            return {k: (type(v), v) for k, v in row.items()}

        untimed, timed = stores.env_index("Env", only)
        untimed_records, timed_records = env_history(records)
        assert {sid: typed_row(row) for sid, row in untimed.items()} == {
            sid: typed_row(oracle_row(r)) for sid, r in untimed_records.items()}
        assert {sid: (times, [typed_row(row) for row in rows])
                for sid, (times, rows) in timed.items()} == {
            sid: (times, [typed_row(oracle_row(r)) for r in rs])
            for sid, (times, rs) in timed_records.items()}

    def test_every_api_projects_in_one_visit_per_event(self):
        class CountingEvents(list):
            visits = 0

            def __iter__(self):
                for event in super().__iter__():
                    self.visits += 1
                    yield event

        names = ["f", "g", "h"]
        bundle = SchemaBundle([every_tag_entity(name) for name in names])
        events = CountingEvents(
            LogEvent(i, names[i % 4] if i % 4 < 3 else "other", {"integer": i}, {}, i, "s1")
            for i in range(12)
        )
        stores = JoinStores(bundle, LogCorpus(events=events, env_records=[]), {})
        for name in names:
            assert [i for i, _ in stores.instances(name).rows] == [
                i for i in range(12) if i % 4 == names.index(name)
            ]
        assert events.visits == len(events)
        with pytest.raises(StoreLookupError):
            stores.instances("other")

    def test_paths_nulls_and_filtering(self):
        entity = flatten_api_signature(
            "createOrder",
            {"userId": "string", "amount": "float"},
            {"order": {"id": "string"}},
        )
        lines = [
            api_line("createOrder", 10, "s1", {"userId": "u1", "amount": 5.0}, {"order": {"id": "o1"}}),
            api_line("other", 11, "s1"),
            api_line("createOrder", 12, "s2", {"userId": "u2"}, {}),
        ]
        corpus = ingest_logs(lines)
        table = project(corpus.events, entity)
        assert (table.rows, table.mismatches) == oracle_table(corpus.events, entity)
        first = table.rows[0][1]
        assert first["arguments.amount"] == 5.0
        assert first["time"] == 10 and first["sessionId"] == "s1"
        second = table.rows[1][1]
        assert second["arguments.amount"] is None
        assert second["response.order.id"] is None
        assert table.mismatches == 0

    def test_coercion_mismatch_counts_and_nulls(self):
        entity = flatten_api_signature("f", {"n": "int"}, {})
        corpus = ingest_logs([api_line("f", 1, "s1", {"n": "not a number"})])
        table = project(corpus.events, entity)
        assert table.rows[0][1]["arguments.n"] is None
        assert table.mismatches == 1

    def test_digit_string_coerces_to_int_but_float_does_not(self):
        entity = flatten_api_signature("f", {"n": "int"}, {})
        corpus = ingest_logs([api_line("f", 1, "s1", {"n": "42"})])
        assert table_value(project(corpus.events, entity)) == 42
        corpus = ingest_logs([api_line("f", 1, "s1", {"n": 3.0})])
        table = project(corpus.events, entity)
        assert table.rows[0][1]["arguments.n"] is None
        assert table.mismatches == 1

    def test_number_stringifies_for_string_attribute(self):
        entity = flatten_api_signature("f", {"s": "string"}, {})
        corpus = ingest_logs([api_line("f", 1, "s1", {"s": 7})])
        assert table_value(project(corpus.events, entity)) == "7"

    def test_document_attribute_projects_canonical_json(self):
        entity = flatten_api_signature("f", {"blob": "document"}, {})
        corpus = ingest_logs([api_line("f", 1, "s1", {"blob": {"b": 1, "a": 2}})])
        value = table_value(project(corpus.events, entity))
        assert value == '{"a":2,"b":1}'


def table_value(table):
    (row,) = [r for _, r in table.rows]
    keys = [k for k in row if k not in ("time", "sessionId")]
    return row[keys[0]]


class TestSequencesAndWindows:
    def test_sequences_sorted_by_time_then_id(self, tiny_corpus):
        got = session_sequences(tiny_corpus.events)
        assert got == session_sequence_oracle(tiny_corpus.events)
        assert got["s1"] == ["login", "createOrder", "payOrder"]

    def test_tie_on_time_breaks_by_id(self):
        corpus = ingest_logs(
            [api_line("second", 10, "s1"), api_line("first", 5, "s1"), api_line("tie", 10, "s1")]
        )
        assert session_sequences(corpus.events)["s1"] == ["first", "second", "tie"]


class TestLabels:
    def test_parse_and_file_roundtrip(self, tmp_path):
        lines = [
            json.dumps({"log_id": 0, "label": "normal"}),
            json.dumps({"log_id": 1, "label": "attack", "trace": "t1"}),
            "garbage",
            json.dumps({"log_id": 2, "label": "odd"}),
        ]
        records = parse_labels(lines)
        assert records == [
            LabelRecord(log_id=0, label="normal"),
            LabelRecord(log_id=1, label="attack", trace="t1"),
        ]
        path = tmp_path / "labels.jsonl"
        path.write_text("\n".join(lines[:2]) + "\n", encoding="utf-8")
        assert read_label_file(path, mode="strict") == records

    def test_strict_label_errors(self):
        with pytest.raises(IngestError):
            parse_labels(["{bad"], mode="strict")
        with pytest.raises(IngestError):
            parse_labels([json.dumps({"log_id": True, "label": "normal"})], mode="strict")

    def test_lenient_mode_counts_the_lines_it_drops(self, caplog):
        good = json.dumps({"log_id": 0, "label": "normal"})
        lines = [good, "{bad", "", "  ", json.dumps({"log_id": 1, "label": "odd"}), "[1]"]
        with caplog.at_level(logging.WARNING, logger="apivet.logstore"):
            assert parse_labels(lines) == [LabelRecord(log_id=0, label="normal")]
        # blank lines are not records, so not dropped ones
        assert caplog.messages == ["skipped 3 malformed label line(s)"]
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="apivet.logstore"):
            parse_labels([good, ""])
            with pytest.raises(IngestError, match="line 2: invalid JSON"):
                parse_labels(lines, mode="strict")
        assert caplog.messages == []

    def test_unknown_mode_rejected(self):
        # even on input every mode accepts: a typo must not act as lenient
        with pytest.raises(ValueError, match="unknown ingest mode 'fast'"):
            parse_labels([json.dumps({"log_id": 0, "label": "normal"})], mode="fast")

    def test_a_log_id_labelled_twice_is_refused(self, caplog):
        # a second label would score one call twice, or count a window of
        # normal traffic twice
        lines = [
            json.dumps({"log_id": 0, "label": "normal"}),
            json.dumps({"log_id": 1, "label": "normal"}),
            json.dumps({"log_id": 0, "label": "attack", "trace": "dup"}),
        ]
        with caplog.at_level(logging.WARNING, logger="apivet.logstore"):
            assert parse_labels(lines) == [
                LabelRecord(log_id=0, label="normal"),
                LabelRecord(log_id=1, label="normal"),
            ]
        assert caplog.messages == ["skipped 1 malformed label line(s)"]
        with pytest.raises(IngestError, match="line 3: log_id 0 is labelled twice"):
            parse_labels(lines, mode="strict")
        # a malformed line labels nothing, so a later good one is not a repeat
        bad_then_good = [json.dumps({"log_id": 0, "label": "odd"}), lines[0]]
        assert parse_labels(bad_then_good) == [LabelRecord(log_id=0, label="normal")]

    @pytest.mark.parametrize("line", [
        "[1]",
        "3",
        "null",
        json.dumps({"log_id": 0, "label": "attack", "trace": ["x"]}),
        json.dumps({"log_id": 0, "label": "attack", "trace": 7}),
    ], ids=["list", "number", "null", "list_trace", "number_trace"])
    def test_non_record_lines_are_malformed(self, line):
        good = json.dumps({"log_id": 1, "label": "normal"})
        assert parse_labels([line, good]) == [LabelRecord(log_id=1, label="normal")]
        with pytest.raises(IngestError, match="line 1: malformed label record"):
            parse_labels([line, good], mode="strict")
