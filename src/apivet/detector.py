"""Detection and scoring: run accepted invariants over a corpus.

Each invariant is compiled once with `dsl.compile_invariant` and called on
every joined group of its focal entity; only a failing group pays for an
explanation, which the same compiled object writes. Focal calls are swept in
(time, log id) order whatever the order of the log lines, so each join
cursor passes over its version stream once. Parallel runs split the sorted
calls into contiguous slices with independent join cursors, so a
multi-worker run reports exactly what a single worker would.
"""

from __future__ import annotations

import json
import time as _time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .binlog import TemporalTable
from .dsl import Invariant, compile_invariant, quantified_names
from .errors import MetricsError
from .joins import (
    JoinStores,
    _binding_joiners,
    iter_joined_groups,
    joined_schema_for,
)
from .logstore import LabelRecord, LogCorpus
from .relations import Relationship
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
    groups_built: int = 0
    evaluations: int = 0
    elapsed_s: float = 0.0


# --- corpus checking ---------------------------------------------------------


def _check_stream(stores, schema, rows, compiled, focal_name, only):
    # each worker sweeps its own join cursors forward over its own rows
    violations = []
    for group in iter_joined_groups(stores, schema, rows, only):
        for fn in compiled:
            if not fn(group):
                inv = fn.invariant
                violations.append(
                    ViolationRecord(
                        invariant_id=inv.id,
                        category=inv.category,
                        log_id=group.log_id,
                        api=focal_name,
                        time=group.focal["time"],
                        session_id=group.focal["sessionId"],
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

    stores = JoinStores(bundle, corpus, tables)
    result = DetectionResult(violations=[], logs_processed=len(corpus.events))

    for focal_name in sorted(by_focal):
        invs = by_focal[focal_name]
        schema = joined_schema_for(bundle, focal_name, relationships)
        rows = stores.instances(focal_name).rows
        result.groups_built += len(rows)
        result.evaluations += len(rows) * len(invs)
        compiled = [compile_invariant(inv) for inv in invs]
        # join only the bindings these invariants quantify over
        only: set[str] = set()
        for inv in invs:
            only |= quantified_names(inv.body)
        if jobs <= 1 or len(rows) < 2:
            result.violations.extend(
                _check_stream(stores, schema, rows, compiled, focal_name, only)
            )
        else:
            # fill shared caches before forking
            _binding_joiners(stores, schema, only)
            # rows are in (time, id) order, so each contiguous slice is too:
            # every worker sweeps its own cursors once and answers match jobs=1
            step = (len(rows) + jobs - 1) // jobs
            parts = [rows[i : i + step] for i in range(0, len(rows), step)]
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                chunks = pool.map(
                    lambda part: _check_stream(
                        stores, schema, part, compiled, focal_name, only
                    ),
                    parts,
                )
                for chunk in chunks:
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


def report_to_dict(result: DetectionResult, invariants_checked: int) -> dict:
    # elapsed time stays out of the file so reruns compare byte for byte
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


def write_report(result: DetectionResult, invariants_checked: int, path) -> None:
    from .fileio import write_json

    write_json(report_to_dict(result, invariants_checked), path)


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
