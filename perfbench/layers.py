"""Traced runs: the detect and train pipelines decomposed into public calls.

Spans are recorded by this file around each call into an apivet layer; the
program itself is not instrumented. Per-group work inside the join sweep
(the generator step, each compiled closure, each explanation) is too fine
for one span per call, so it accumulates into one time total per layer.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from apivet import refine as refine_module
from apivet.binlog import ingest_binlog, read_binlog_file
from apivet.config import PipelineConfig
from apivet.detector import (
    DetectionResult,
    ViolationRecord,
    check_corpus,
    compile_invariant,
    evaluate_metrics,
    write_report,
)
from apivet.dsl import evaluate, explain, quantified_names
from apivet.joins import (
    JoinStores,
    build_joined_groups,
    iter_joined_groups,
    joined_schema_for,
)
from apivet.logstore import read_log_file
from apivet.pipeline import (
    make_proposer,
    run_generation,
    run_inference,
    train_sequence_model,
)
from apivet.refine import refine_candidates
from apivet.relations import API_API, API_DB
from apivet.schema import API

perf = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


@dataclass
class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    spans: list[Span] = field(default_factory=list)
    totals: dict[str, float] = field(default_factory=dict)  # accumulated leaf time
    counts: dict[str, float] = field(default_factory=dict)
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, perf(), 0.0, parent))
        index = len(self.spans) - 1
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = perf()

    def add(self, name: str, seconds: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + seconds

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self) -> dict[str, float]:
        """Per layer: span time minus the time its child spans cover.

        Accumulated per-group totals are leaves of the innermost span open
        when they were added, which is the root pass span here.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = dict(self.totals)
        for i, s in enumerate(self.spans):
            if s.parent is None:
                continue
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - child[i]
        return out

    def root_s(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def coverage(self) -> float:
        """Share of the root span's time that layer self times account for."""
        return sum(self.self_times().values()) / self.root_s()


@contextmanager
def counting_calls(module, name: str, tracer: Tracer, counter: str):
    """Count calls to `module.name` made while the block runs."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        tracer.count(counter, 1)
        return original(*args, **kwargs)

    setattr(module, name, counted)
    try:
        yield
    finally:
        setattr(module, name, original)


# --- detection ----------------------------------------------------------------


def _grouped(invariants):
    """Invariants by focal API, in the order check_corpus visits them."""
    by_focal: dict = {}
    for inv in sorted(invariants, key=lambda i: i.id):
        by_focal.setdefault(inv.focal, []).append(inv)
    return by_focal


def detect_untraced(bundle, corpus_paths, relationships, invariants, report_path):
    """What `apivet detect` does after parsing arguments, timed as a whole."""
    started = perf()
    corpus = read_log_file(corpus_paths.logs)
    tables = ingest_binlog(read_binlog_file(corpus_paths.binlog), bundle)
    result = check_corpus(bundle, corpus, tables, relationships, invariants)
    write_report(result, len(invariants), report_path)
    return perf() - started, result


def detect_traced(tracer, bundle, corpus_paths, relationships, invariants, report_path):
    """Detection rebuilt from public calls, with a span around each layer."""
    with tracer.span("detect"):
        with tracer.span("logstore.ingest"):
            corpus = read_log_file(corpus_paths.logs)
        tracer.count(
            "logstore.ingest.lines",
            len(corpus.events) + len(corpus.env_records) + corpus.skipped,
        )
        with tracer.span("binlog.parse"):
            events = read_binlog_file(corpus_paths.binlog)
        tracer.count("binlog.parse.events", len(events))
        with tracer.span("binlog.replay"):
            tables = ingest_binlog(events, bundle)
        tracer.count(
            "binlog.replay.versions",
            sum(len(chain) for t in tables.values() for chain in t.chains.values()),
        )
        with tracer.span("joins.stores"):
            stores = JoinStores(bundle, corpus, tables)

        violations: list[ViolationRecord] = []
        groups_built = evaluations = 0
        built: set = set()  # projections and column streams already counted
        for focal_name, invs in sorted(_grouped(invariants).items()):
            schema = joined_schema_for(bundle, focal_name, relationships)
            only: set[str] = set()
            for inv in invs:
                only |= quantified_names(inv.body)
            rows = _project(tracer, stores, focal_name, built).rows
            tracer.count(
                "joins.sweep.inversions",
                sum(1 for a, b in zip(rows, rows[1:]) if b[1]["time"] < a[1]["time"]),
            )
            _warm_binding_indexes(tracer, stores, schema, only, built)
            with tracer.span("detector.compile"):
                compiled = [(inv, compile_invariant(inv)) for inv in invs]
            groups_built += len(rows)
            evaluations += len(rows) * len(invs)
            violations.extend(
                _sweep(tracer, iter_joined_groups(stores, schema, rows, only),
                       compiled, focal_name)
            )
        violations.sort(key=lambda v: (v.log_id, v.invariant_id))
        result = DetectionResult(
            violations=violations,
            logs_processed=len(corpus.events),
            groups_built=groups_built,
            evaluations=evaluations,
        )
        with tracer.span("detector.report"):
            write_report(result, len(invariants), report_path)
    tracer.count("detector.report.bytes", os.path.getsize(report_path))
    return result


def _project(tracer, stores, api_name, built):
    with tracer.span("logstore.project"):
        table = stores.instances(api_name)
    if api_name not in built:
        built.add(api_name)
        tracer.count("logstore.project.rows", len(table.rows))
        tracer.count("logstore.project.mismatches", table.mismatches)
    return table


def _warm_binding_indexes(tracer, stores, schema, only, built) -> None:
    """Build, under their own spans, the indexes the join sweep will read."""
    for binding in schema.bindings:
        if binding.name not in only:
            continue
        rel = binding.relationship
        if rel.kind == API_DB:
            key = (rel.target_entity, rel.target_attr)
            with tracer.span("joins.column_streams"):
                stream = stores.column_events(*key)
            if key not in built:
                built.add(key)
                tracer.count("joins.column_streams.events", len(stream))
        elif rel.kind == API_API:
            _project(tracer, stores, rel.target_entity, built)
            with tracer.span("joins.session_index"):
                stores.session_calls(rel.target_entity)


def _sweep(tracer, groups, compiled, focal_name):
    """Join each focal row, run every compiled closure, explain each failure."""
    sweep_s = eval_s = explain_s = 0.0
    bound_rows = failures = n_groups = 0
    violations = []
    while True:
        t0 = perf()
        group = next(groups, None)
        sweep_s += perf() - t0
        if group is None:
            break
        n_groups += 1
        for rows in group.bindings.values():
            bound_rows += len(rows)
        for inv, fn in compiled:
            t0 = perf()
            ok = fn(group)
            eval_s += perf() - t0
            if ok:
                continue
            failures += 1
            t0 = perf()
            explanation = explain(evaluate(inv, group))
            explain_s += perf() - t0
            violations.append(
                ViolationRecord(
                    invariant_id=inv.id,
                    category=inv.category,
                    log_id=group.log_id,
                    api=focal_name,
                    time=group.focal["time"],
                    session_id=group.focal["sessionId"],
                    explanation=explanation,
                )
            )
    tracer.add("joins.sweep", sweep_s)
    tracer.add("detector.eval", eval_s)
    tracer.add("dsl.explain", explain_s)
    tracer.count("joins.sweep.groups", n_groups)
    tracer.count("joins.sweep.bound_rows", bound_rows)
    tracer.count("detector.eval.evaluations", n_groups * len(compiled))
    tracer.count("dsl.explain.violations", failures)
    return violations


def score_seconds(report_dict, labels) -> float:
    """Time of scoring a report against labels (outside any detect span)."""
    flagged = {v["log_id"] for v in report_dict["violations"]}
    started = perf()
    evaluate_metrics(flagged, labels)
    return perf() - started


# --- training -----------------------------------------------------------------


def train_untraced(bundle, corpus_paths):
    """`relations infer` then `invariants generate`, minus file output."""
    config = PipelineConfig()
    corpus = read_log_file(corpus_paths.logs)
    tables = ingest_binlog(read_binlog_file(corpus_paths.binlog), bundle)
    relationships = run_inference(bundle, corpus, tables, config).relationships
    invariants = run_generation(bundle, corpus, tables, relationships, config).invariants
    return relationships, invariants


def train_traced(tracer, bundle, corpus_paths):
    """Training rebuilt from public calls, with a span around each layer."""
    config = PipelineConfig()
    with tracer.span("train"):
        with tracer.span("train.load"):
            corpus = read_log_file(corpus_paths.logs)
            tables = ingest_binlog(read_binlog_file(corpus_paths.binlog), bundle)
        proposer = make_proposer(config)
        with tracer.span("seqmodel.train"):
            seq_model = train_sequence_model(corpus, config)
        # value universes of every table column are built inside this span
        with tracer.span("relations.infer"):
            report = run_inference(
                bundle, corpus, tables, config, proposer=proposer, seq_model=seq_model
            )
        tracer.count("relations.infer.proposed", report.proposed)
        tracer.count("relations.infer.accepted", len(report.relationships))
        tracer.count("relations.infer.rejected", len(report.rejected))
        relationships = report.relationships

        with tracer.span("train.stores"):
            stores = JoinStores(bundle, corpus, tables)
        invariants = []
        used_ids: set[str] = set()
        for entity in sorted(bundle.of_kind(API), key=lambda e: e.name):
            schema = joined_schema_for(bundle, entity.name, relationships)
            with tracer.span("joins.build_groups"):
                groups = build_joined_groups(stores, schema)
            tracer.count("joins.build_groups.groups", len(groups))
            with tracer.span("proposer.propose"):
                proposal = proposer.propose_invariants(schema)
            tracer.count("proposer.propose.candidates", len(proposal.texts))
            with tracer.span("refine.refine"), counting_calls(
                refine_module, "evaluate", tracer, "refine.refine.evaluations"
            ):
                outcome = refine_candidates(
                    proposal.texts,
                    proposal.conversation,
                    groups,
                    entity.name,
                    proposer,
                    max_rounds=config.max_refine_rounds,
                    sample_limit=config.violation_samples,
                )
            tracer.count("refine.refine.calls", outcome.refine_calls)
            tracer.count("refine.refine.accepted", len(outcome.accepted))
            # the id deduplication run_generation applies across APIs
            for inv in outcome.accepted:
                if inv.id in used_ids:
                    n = 2
                    while f"{inv.id}_{n}" in used_ids:
                        n += 1
                    inv = replace(inv, id=f"{inv.id}_{n}")
                used_ids.add(inv.id)
                invariants.append(inv)
    return relationships, invariants
