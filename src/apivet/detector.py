"""Detection and scoring: run accepted invariants over a corpus.

Each focal API's invariants are one batch of `joins.failing_calls`: one
generated check per API, run on each of its calls in (time, log id) order,
whatever the order of the log lines, projecting only the calls and
environment attributes the checks read. A call that passes allocates no
group; a failing one's group is the rows its check joined, and each failed
invariant is explained over it by `dsl.compile_invariant`'s object. The report streams to its file one
violation at a time, in json.dumps' indented layout.
"""

from __future__ import annotations

import json
import time as _time

from .binlog import TemporalTable
from .dsl import Invariant, admission_problem, compile_invariant
from .errors import MetricsError, SchemaError
from .fileio import json_string, read_json, write_chunks, write_json
from .joins import JoinedGroup, JoinStores, binding_names, failing_calls, joined_schema_for
from .logstore import LabelRecord, LogCorpus
from .relations import Relationship, admit_relationships
from .schema import API, SchemaBundle
from .values import Record


class ViolationRecord(Record):
    __slots__ = ("invariant_id", "category", "log_id", "api", "time", "session_id", "explanation")

    def __init__(
        self, invariant_id: str, category: str, log_id: int, api: str, time: int,
        session_id: str, explanation: str,
    ):
        self.invariant_id = invariant_id
        self.category = category
        self.log_id = log_id
        self.api = api
        self.time = time
        self.session_id = session_id
        self.explanation = explanation


class DetectionResult(Record):
    __slots__ = ("violations", "logs_processed", "groups_built", "evaluations", "elapsed_s")

    # groups_built: calls checked, each against its joined group (the
    # report's name: a call that passes has its joins probed, and no group
    # is built for it)
    def __init__(
        self, violations: list[ViolationRecord], logs_processed: int = 0,
        groups_built: int = 0, evaluations: int = 0, elapsed_s: float = 0.0,
    ):
        self.violations = violations
        self.logs_processed = logs_processed
        self.groups_built = groups_built
        self.evaluations = evaluations
        self.elapsed_s = elapsed_s


# --- corpus checking ---------------------------------------------------------


def admit_invariants(
    bundle: SchemaBundle, relationships: list[Relationship], invariants: list[Invariant]
) -> list[Invariant]:
    """`invariants`, once each is known to run on any corpus: its focal API
    is in the bundle and it passes `dsl.admission_problem` against the
    names that API binds, and no earlier invariant has its id. The first
    that does not is a SchemaError naming it, whatever calls the corpus
    holds."""
    apis = {entity.name for entity in bundle.of_kind(API)}
    ids: set[str] = set()
    for inv in invariants:
        if inv.id in ids:
            raise SchemaError(f"invariant {inv.id!r}: its id is listed twice")
        ids.add(inv.id)
        if inv.focal not in apis:
            raise SchemaError(f"invariant {inv.id!r}: unknown API {inv.focal!r}")
        bound = binding_names([r for r in relationships if r.focal_entity == inv.focal])
        problem = admission_problem(inv, inv.focal, set(bound))
        if problem is not None:
            raise SchemaError(f"invariant {inv.id!r}: {problem}")
    return invariants


def check_corpus(
    bundle: SchemaBundle,
    corpus: LogCorpus,
    tables: dict[str, TemporalTable],
    relationships: list[Relationship],
    invariants: list[Invariant],
) -> DetectionResult:
    """Evaluate every invariant against every matching call in the corpus,
    once `relations.admit_relationships` and admit_invariants have vetted
    the relationships and the invariants."""
    started = _time.perf_counter()
    admit_relationships(bundle, relationships)
    admit_invariants(bundle, relationships, invariants)
    by_focal: dict[str, list[Invariant]] = {}
    for inv in sorted(invariants, key=lambda i: i.id):
        by_focal.setdefault(inv.focal, []).append(inv)
    batches = [
        (joined_schema_for(bundle, name, relationships), by_focal[name])
        for name in sorted(by_focal)
    ]
    compiled = [[compile_invariant(inv) for inv in invs] for _, invs in batches]

    stores = JoinStores(bundle, corpus, tables)
    violations = []
    for k, log_id, row, failed, bindings in failing_calls(stores, batches):
        group = JoinedGroup(log_id, row, bindings)
        api = batches[k][0].focal.name
        for i in failed:
            fn = compiled[k][i]
            violations.append(
                ViolationRecord(
                    invariant_id=fn.invariant.id,
                    category=fn.invariant.category,
                    log_id=log_id,
                    api=api,
                    time=row["time"],
                    session_id=row["sessionId"],
                    explanation=fn.explain(group),
                )
            )
    violations.sort(key=lambda v: (v.log_id, v.invariant_id))
    result = DetectionResult(violations=violations, logs_processed=len(corpus.events))
    for schema, invs in batches:
        rows = stores.instances(schema.focal.name).rows
        result.groups_built += len(rows)
        result.evaluations += len(rows) * len(invs)
    result.elapsed_s = _time.perf_counter() - started
    return result


# --- scoring -----------------------------------------------------------------


class MetricsResult(Record):
    __slots__ = ("tp", "fp", "tn", "fn", "precision", "recall", "windows", "traces")

    def __init__(
        self, tp: int, fp: int, tn: int, fn: int, precision: float | None,
        recall: float | None, windows: int = 0, traces: int = 0,
    ):
        self.tp = tp
        self.fp = fp
        self.tn = tn
        self.fn = fn
        self.precision = precision
        self.recall = recall
        self.windows = windows
        self.traces = traces


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


def _summary(result: DetectionResult, invariants_checked: int) -> dict:
    # elapsed time stays out of the file so reruns compare byte for byte
    return {
        "logs_processed": result.logs_processed,
        "groups_built": result.groups_built,
        "evaluations": result.evaluations,
        "invariants_checked": invariants_checked,
        "violations": len(result.violations),
    }


# one violation as json.dumps(..., indent=2) lays out its dict, keys in
# this order, inside the report's list: ingest and the binlog parser guarantee str and
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
    """The bytes of json.dumps(report, indent=2) + "\n", a violation per
    chunk, without the report's dicts or the whole string."""
    enc = json_string
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
    write_chunks(_report_chunks(result, invariants_checked), path)


def read_report(path) -> dict:
    data = read_json(path)
    if "violations" not in data or "summary" not in data:
        raise MetricsError("not a detection report: it lacks violations or a summary")
    return data


def flagged_ids(report: dict) -> set[int]:
    """The log ids a report's violations name; each must be an int."""
    ids = set()
    for item in report["violations"]:
        log_id = item["log_id"]
        if type(log_id) is not int:  # a bool is no log id either
            raise ValueError(f"log_id {log_id!r} is not an int")
        ids.add(log_id)
    return ids


def metrics_to_dict(metrics: MetricsResult) -> dict:
    return {name: getattr(metrics, name) for name in MetricsResult.__slots__}


def write_metrics(metrics: MetricsResult, path) -> None:
    write_json(metrics_to_dict(metrics), path)
