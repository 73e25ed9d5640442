"""Detection and scoring: run accepted invariants over a corpus.

Each focal API's invariants become one generated check (`dsl.compile_checks`)
that reads the call's attributes once and probes its joins directly. Only
the calls the checks read are projected (`Sweep.apis_read`): the focal
APIs' and those of the earlier-call bindings their invariants quantify
over. Every focal API's calls are merged into one (time, log id) sweep,
whatever the order of the log lines, so each table's cursor passes over its
version stream once. A call that passes allocates no group; a failing one
gets its joined group built and each failed invariant explained by
`dsl.compile_invariant`'s object. Parallel runs split the merged calls into
contiguous slices with their own cursors and checks, so a multi-worker run
reports exactly what a single worker would. The report streams to its file
one violation at a time, in json.dumps' indented layout.
"""

from __future__ import annotations

import json
import math
import time as _time
from dataclasses import dataclass
from functools import partial
from json.encoder import encode_basestring_ascii

from .binlog import TemporalTable
from .dsl import (
    Invariant,
    compile_checks,
    compile_invariant,
    field_refs,
    quantified_names,
)
from .errors import MetricsError
from .joins import JoinedGroup, JoinedSchema, JoinStores, Sweep, joined_schema_for
from .logstore import LabelRecord, LogCorpus
from .relations import API_ENV, Relationship
from .schema import SchemaBundle


@dataclass(slots=True)
class ViolationRecord:
    invariant_id: str
    category: str
    log_id: int
    api: str
    time: int
    session_id: str
    explanation: str


@dataclass
class DetectionResult:
    violations: list[ViolationRecord]
    logs_processed: int = 0
    # calls checked, each against its joined group (the report's name: a
    # call that passes has its joins probed, and no group is built for it)
    groups_built: int = 0
    evaluations: int = 0
    elapsed_s: float = 0.0


# --- corpus checking ---------------------------------------------------------


@dataclass
class _FocalPlan:
    name: str
    invariants: list[Invariant]
    compiled: list  # compile_invariant of each, for explanations
    schema: JoinedSchema
    only: set[str]  # the bindings its invariants quantify over


def _env_attrs(plans: list[_FocalPlan]) -> dict[str, frozenset]:
    """Per environment entity, the attribute paths the invariants read on
    rows bound to it: detection projects only these."""
    attrs: dict[str, set] = {}
    for plan in plans:
        refs = [ref for inv in plan.invariants for ref in field_refs(inv.body)]
        for binding in plan.schema.bindings:
            if binding.relationship.kind != API_ENV or binding.name not in plan.only:
                continue
            read = attrs.setdefault(binding.entity.name, set())
            read.update(ref.path for ref in refs if ref.root == binding.name)
    return {entity: frozenset(paths) for entity, paths in attrs.items()}


def _check_slice(plans: list[_FocalPlan], work: tuple) -> list:
    """Check one slice of (time, log id, row, plan index) calls, sorted, in
    one forward sweep: `work` is (sweep, each plan's check, each plan's
    group bindings, calls), all built on the slice's sweep."""
    sweep, checks, bindings, calls = work
    advance = sweep.advance
    violations = []
    pending = -math.inf  # time of the first version no cursor has applied
    for t, log_id, row, k in calls:
        if t > pending:
            pending = advance(t)
        failed = checks[k](row)
        if not failed:
            continue
        plan = plans[k]
        group = JoinedGroup(log_id, row, bindings[k](row))
        for i in failed:
            fn = plan.compiled[i]
            violations.append(
                ViolationRecord(
                    invariant_id=fn.invariant.id,
                    category=fn.invariant.category,
                    log_id=log_id,
                    api=plan.name,
                    time=t,
                    session_id=row["sessionId"],
                    explanation=fn.explain(group),
                )
            )
    return violations


def check_corpus(
    bundle: SchemaBundle,
    corpus: LogCorpus,
    tables: dict[str, TemporalTable],
    relationships: list[Relationship],
    invariants: list[Invariant],
    jobs: int = 1,
) -> DetectionResult:
    """Evaluate every invariant against every matching call in the corpus."""
    started = _time.perf_counter()
    by_focal: dict[str, list[Invariant]] = {}
    for inv in sorted(invariants, key=lambda i: i.id):
        by_focal.setdefault(inv.focal, []).append(inv)

    plans = []
    for focal_name in sorted(by_focal):
        invs = by_focal[focal_name]
        only: set[str] = set()
        for inv in invs:
            only |= quantified_names(inv.body)
        plans.append(
            _FocalPlan(
                name=focal_name,
                invariants=invs,
                compiled=[compile_invariant(inv) for inv in invs],
                schema=joined_schema_for(bundle, focal_name, relationships),
                only=only,
            )
        )

    schemas = [(p.schema, p.only) for p in plans]
    stores = JoinStores(bundle, corpus, tables)
    stores.project(Sweep.apis_read(schemas))
    result = DetectionResult(violations=[], logs_processed=len(corpus.events))
    calls = []
    for k, plan in enumerate(plans):
        rows = stores.instances(plan.name).rows
        result.groups_built += len(rows)
        result.evaluations += len(rows) * len(plan.invariants)
        calls.extend((row["time"], log_id, row, k) for log_id, row in rows)
    # log ids are unique, so the sort never compares rows
    calls.sort()

    # contiguous slices of (time, id) ordered calls are in that order too:
    # every worker sweeps its own cursors once and answers match jobs=1
    if jobs <= 1 or len(calls) < 2:
        parts = [calls]
    else:
        step = -(-len(calls) // jobs)
        parts = [calls[i : i + step] for i in range(0, len(calls), step)]
    # sweeps and checks are built here, before any worker runs, so the
    # store's shared caches fill in one thread
    env_attrs = _env_attrs(plans)
    work = []
    for part in parts:
        sweep = Sweep(stores, schemas, env_attrs)
        checks = [
            compile_checks(p.invariants, partial(sweep.emit, focal_name=p.name)) for p in plans
        ]
        work.append((sweep, checks, [sweep.group_bindings(p.name) for p in plans], part))
    if len(work) == 1:
        result.violations = _check_slice(plans, work[0])
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for chunk in pool.map(partial(_check_slice, plans), work):
                result.violations.extend(chunk)

    result.violations.sort(key=lambda v: (v.log_id, v.invariant_id))
    result.elapsed_s = _time.perf_counter() - started
    return result


# --- scoring -----------------------------------------------------------------


@dataclass
class MetricsResult:
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float | None
    recall: float | None
    windows: int = 0
    traces: int = 0


def evaluate_metrics(
    flagged: set[int],
    labels: list[LabelRecord],
    window_size: int = 20,
) -> MetricsResult:
    """Window-level false positives against trace-level detections.

    The normal stream is scored in fixed windows: one false positive per
    window containing any flagged log. Each attack trace counts once: a
    true positive if any of its logs was flagged.
    """
    if window_size < 1:
        raise MetricsError(f"window size must be positive, got {window_size}")
    normal_ids: list[int] = []
    traces: dict[str, list[int]] = {}
    for record in labels:
        if record.label == "normal":
            normal_ids.append(record.log_id)
        elif record.label == "attack":
            if not record.trace:
                raise MetricsError(
                    f"attack log {record.log_id} lacks a trace identifier"
                )
            traces.setdefault(record.trace, []).append(record.log_id)
        else:
            raise MetricsError(
                f"unknown label {record.label!r} on log {record.log_id}"
            )
    windows = [
        normal_ids[i : i + window_size]
        for i in range(0, len(normal_ids), window_size)
    ]
    fp = sum(1 for window in windows if any(i in flagged for i in window))
    tn = len(windows) - fp
    tp = sum(1 for ids in traces.values() if any(i in flagged for i in ids))
    fn = len(traces) - tp
    precision = tp / (tp + fp) if (tp + fp) > 0 else None
    recall = tp / (tp + fn) if (tp + fn) > 0 else None
    return MetricsResult(
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        precision=precision,
        recall=recall,
        windows=len(windows),
        traces=len(traces),
    )


# --- reports -----------------------------------------------------------------


def violation_to_dict(record: ViolationRecord) -> dict:
    return {
        "invariant_id": record.invariant_id,
        "category": record.category,
        "log_id": record.log_id,
        "api": record.api,
        "time": record.time,
        "session_id": record.session_id,
        "explanation": record.explanation,
    }


def _summary(result: DetectionResult, invariants_checked: int) -> dict:
    # elapsed time stays out of the file so reruns compare byte for byte
    return {
        "logs_processed": result.logs_processed,
        "groups_built": result.groups_built,
        "evaluations": result.evaluations,
        "invariants_checked": invariants_checked,
        "violations": len(result.violations),
    }


def report_to_dict(result: DetectionResult, invariants_checked: int) -> dict:
    return {
        "summary": _summary(result, invariants_checked),
        "violations": [violation_to_dict(v) for v in result.violations],
    }


# one violation as json.dumps(violation_to_dict(v), indent=2) lays it out
# inside the report's list: ingest and the binlog parser guarantee str and
# int fields, so strings go through json's own C escaper and ints through %d
_VIOLATION = (
    "\n    {"
    '\n      "invariant_id": %s,'
    '\n      "category": %s,'
    '\n      "log_id": %d,'
    '\n      "api": %s,'
    '\n      "time": %d,'
    '\n      "session_id": %s,'
    '\n      "explanation": %s'
    "\n    }"
)


def _report_chunks(result: DetectionResult, invariants_checked: int):
    """The bytes of json.dumps(report_to_dict(...), indent=2) + "\n", a
    violation per chunk, without the dicts or the whole string."""
    enc = encode_basestring_ascii
    summary = _summary(result, invariants_checked)
    frame = json.dumps({"summary": summary, "violations": []}, indent=2)
    if not result.violations:
        yield frame + "\n"
        return
    yield frame[: -len("[]\n}")] + "["
    sep = ""
    for v in result.violations:
        yield sep + _VIOLATION % (
            enc(v.invariant_id),
            enc(v.category),
            v.log_id,
            enc(v.api),
            v.time,
            enc(v.session_id),
            enc(v.explanation),
        )
        sep = ","
    yield "\n  ]\n}\n"


def write_report(result: DetectionResult, invariants_checked: int, path) -> None:
    from .fileio import write_chunks

    write_chunks(_report_chunks(result, invariants_checked), path)


def read_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if "violations" not in data or "summary" not in data:
        raise MetricsError(f"not a detection report: {path}")
    return data


def flagged_ids(report: dict) -> set[int]:
    return {item["log_id"] for item in report["violations"]}


def metrics_to_dict(metrics: MetricsResult) -> dict:
    return {
        "tp": metrics.tp,
        "fp": metrics.fp,
        "tn": metrics.tn,
        "fn": metrics.fn,
        "precision": metrics.precision,
        "recall": metrics.recall,
        "windows": metrics.windows,
        "traces": metrics.traces,
    }


def write_metrics(metrics: MetricsResult, path) -> None:
    from .fileio import write_json

    write_json(metrics_to_dict(metrics), path)
