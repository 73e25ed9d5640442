"""Order robustness: swapping log or binlog lines changes neither the report
nor the sweep.

A copy of a benchgen corpus with a seeded share of adjacent log lines
swapped must give the in-order report once its log ids are mapped back, and
its join cursors must still only move forward in time. A copy of its binlog
swapped the same way must replay, strictly and without a repair, to tables
that give the in-order report as it is: binlog lines carry no log ids.
"""

import json
import logging
import random
from types import SimpleNamespace

import pytest

from apivet.benchgen import (
    binlog_lines,
    corpus_lines,
    generate_normal,
    inject_cross_user,
    inject_double_refund,
    inject_field_tamper,
    scenario_bundle,
)
from apivet.binlog import ingest_binlog, parse_row_events
from apivet.config import PipelineConfig
from apivet.detector import check_corpus
from apivet.joins import JoinStores, TableCursor
from apivet.logstore import ingest_logs
from apivet.pipeline import run_generation, run_inference
from apivet.schema import API

from oracles import report_to_dict

SWAP_SHARE = 0.10


def swap_adjacent(lines, share, seed):
    """Swap a seeded share of adjacent line pairs.

    Returns the new lines and `order`, where order[new log id] is the log id
    the same API line had in the original file (empty for binlog lines).
    """
    tagged = []
    api_id = 0
    for line in lines:
        if json.loads(line).get("kind") == "api":
            tagged.append((line, api_id))
            api_id += 1
        else:
            tagged.append((line, None))
    rng = random.Random(seed)
    i = 0
    while i < len(tagged) - 1:
        if rng.random() < share:
            tagged[i], tagged[i + 1] = tagged[i + 1], tagged[i]
            i += 2
        else:
            i += 1
    return [line for line, _ in tagged], [k for _, k in tagged if k is not None]


def tables_of(lines, bundle):
    events = parse_row_events(lines, mode="strict")
    return ingest_binlog(events, bundle, mode="strict")


@pytest.fixture(scope="module")
def setup():
    bundle = scenario_bundle()
    config = PipelineConfig()
    train = generate_normal(200, seed=41)
    train_corpus = ingest_logs(corpus_lines(train)[0], mode="strict")
    train_tables = tables_of(binlog_lines(train), bundle)
    relationships = run_inference(bundle, train_corpus, train_tables, config).relationships
    invariants = run_generation(
        bundle, train_corpus, train_tables, relationships, config
    ).invariants

    bench = generate_normal(300, seed=43, first_index=5000)
    bench = inject_double_refund(bench, 10, seed=44)
    bench = inject_cross_user(bench, 10, seed=45)
    bench = inject_field_tamper(bench, per_kind=3, seed=46)
    lines = list(corpus_lines(bench)[0])
    swapped_lines, order = swap_adjacent(lines, SWAP_SHARE, seed=47)
    binlog = list(binlog_lines(bench))
    return SimpleNamespace(
        bundle=bundle,
        relationships=relationships,
        invariants=invariants,
        tables=tables_of(binlog, bundle),
        swapped_binlog=swap_adjacent(binlog, SWAP_SHARE, seed=48)[0],
        in_order=ingest_logs(lines, mode="strict"),
        swapped=ingest_logs(swapped_lines, mode="strict"),
        order=order,
    )


def detect(setup, corpus, tables=None):
    return check_corpus(
        setup.bundle, corpus, setup.tables if tables is None else tables,
        setup.relationships, setup.invariants,
    )


def test_swapped_corpus_is_out_of_time_order(setup):
    times = [event.time for event in setup.swapped.events]
    assert any(b < a for a, b in zip(times, times[1:]))
    assert sorted(setup.order) != setup.order


def test_swapped_report_maps_back_to_in_order_report(setup):
    want = report_to_dict(detect(setup, setup.in_order), len(setup.invariants))
    got = report_to_dict(detect(setup, setup.swapped), len(setup.invariants))
    for violation in got["violations"]:
        violation["log_id"] = setup.order[violation["log_id"]]
    got["violations"].sort(key=lambda v: (v["log_id"], v["invariant_id"]))
    assert want["violations"]  # the comparison is not vacuous
    assert got == want


def test_swapped_binlog_replays_strictly_without_repairs(setup, caplog):
    events = parse_row_events(setup.swapped_binlog, mode="strict")
    assert any(b.ts < a.ts for a, b in zip(events, events[1:]))
    ingest_binlog(events, setup.bundle, mode="strict")
    caplog.set_level(logging.DEBUG, logger="apivet.binlog")
    ingest_binlog(events, setup.bundle)
    assert [r.getMessage() for r in caplog.records if r.name == "apivet.binlog"] == []


def test_swapped_binlog_gives_the_in_order_report(setup):
    want = report_to_dict(detect(setup, setup.in_order), len(setup.invariants))
    # lenient replay, so a repair would show in the report
    swapped_tables = ingest_binlog(parse_row_events(setup.swapped_binlog), setup.bundle)
    got = report_to_dict(detect(setup, setup.in_order, swapped_tables), len(setup.invariants))
    assert want["violations"]  # the comparison is not vacuous
    assert got == want


def test_instances_are_in_time_then_id_order(setup):
    stores = JoinStores(setup.bundle, setup.swapped, setup.tables)
    for entity in setup.bundle.of_kind(API):
        keys = [(row["time"], log_id) for log_id, row in stores.instances(entity.name).rows]
        assert keys == sorted(keys), entity.name


def test_join_cursors_never_see_a_backward_time(setup, monkeypatch):
    advance = TableCursor.advance
    last_t = {}  # id(cursor) -> (cursor, last t); holding the cursor pins its id
    probes = rewinds = 0

    def counting(self, t):
        nonlocal probes, rewinds
        probes += 1
        seen = last_t.get(id(self))
        if seen is not None and t < seen[1]:
            rewinds += 1
        last_t[id(self)] = (self, t)
        return advance(self, t)

    monkeypatch.setattr(TableCursor, "advance", counting)
    detect(setup, setup.swapped)
    assert probes > 0
    assert rewinds == 0
