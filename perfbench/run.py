"""apivet benchmark: end-to-end detect/train metrics and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the benchmark drives the real CLI (`python -m apivet.cli`)
over generated corpus files, one command at a time from one process, and
reports the end-to-end metrics, their times adjusted to a fixed machine
speed by a reference job timed between commands (perfbench/reference.py).
With --trace 1 it runs the same pipelines in process, decomposed into
public calls with a span around each layer, and reports the per-layer
metrics and the tracing overhead. The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
--smoke shrinks every corpus so the benchmark's own tests run in seconds.

Inputs, models, reports and outputs of the CLI go to perfbench/_work and
are removed at exit; a copy of each result, with machine facts and input
digests, is kept in perfbench/results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
RESULTS = ROOT / "perfbench" / "results"

SETUP_REPS = 3  # setup_s is the median of this many complete set-ups
REFERENCE_JOB = ROOT / "perfbench" / "reference.py"
# What the reference job took, median, on the machine the benchmark was
# defined on (2 vCPUs, x86_64, Python 3.11.7). Adjusted times are seconds on
# that machine at that speed: measured time x REFERENCE_S / reference time.
REFERENCE_S = 0.25
MIN_PASSES = 2  # traced detect passes, however long each takes
COMMAND_TIMEOUT_S = 170

perf = time.perf_counter


# --- the CLI, one command at a time -------------------------------------------


def _spawn(args: list[str], cwd: Path, env, log_path: Path):
    """Run the interpreter on `args`; wall seconds, exit code, peak RSS in KiB."""
    with open(log_path, "wb") as log:
        started = perf()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT
        )
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4 rather than wait: it also returns the child's peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = perf() - started
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss


class Cli:
    """Runs apivet commands in child processes and keeps the tally."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kib = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def run(self, *args: str) -> float | None:
        """Wall seconds of one command, or None when it exits non-zero."""
        self.attempted += 1
        log_path = self.work / f"cmd{self.attempted:03d}.log"
        wall, code, rss_kib = _spawn(["-m", "apivet.cli", *args], self.work, self.env, log_path)
        self.peak_rss_kib = max(self.peak_rss_kib, rss_kib)
        if code != 0:
            tail = log_path.read_text(errors="replace").strip().splitlines()[-3:]
            self.fail(f"`apivet {' '.join(args[:2])}` exited {code}: {tail}")
            return None
        return wall

    def reference(self) -> float:
        """Wall seconds of one run of the reference job."""
        wall, code, _ = _spawn(
            [str(REFERENCE_JOB)], self.work, os.environ, self.work / "reference.log"
        )
        if code != 0:
            raise RuntimeError(f"the reference job exited {code}")
        return wall

    def train(self, corpus, out_dir: Path) -> float | None:
        """`relations infer` + `invariants generate`; wall seconds of both."""
        inputs = ["--bundle", corpus.bundle, "--logs", corpus.logs, "--binlog", corpus.binlog]
        relations = str(out_dir / "relations.json")
        infer = self.run("relations", "infer", *inputs, "--out", relations)
        if infer is None:
            return None
        generate = self.run(
            "invariants", "generate", *inputs, "--relations", relations,
            "--out", str(out_dir / "invariants.txt"),
        )
        return None if generate is None else infer + generate

    def detect(self, corpus, model_dir: Path, report: Path) -> float | None:
        return self.run(
            "detect", "--bundle", corpus.bundle, "--logs", corpus.logs,
            "--binlog", corpus.binlog,
            "--relations", str(model_dir / "relations.json"),
            "--invariants", str(model_dir / "invariants.txt"),
            "--out", str(report),
        )


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _in_file_order(report: dict, order: list[int]) -> dict:
    """Report with log ids mapped back to the unshuffled corpus, re-sorted."""
    violations = [dict(v, log_id=order[v["log_id"]]) for v in report["violations"]]
    violations.sort(key=lambda v: (v["log_id"], v["invariant_id"]))
    return dict(report, violations=violations)


# --- untraced run: end-to-end metrics --------------------------------------------


class Reference:
    """Runs the reference job before the first timed step and after each one."""

    def __init__(self, cli: Cli):
        self.cli = cli
        self.samples = [cli.reference()]

    def around(self) -> float:
        """Call after each timed step: the mean of the runs just before and after it."""
        self.samples.append(self.cli.reference())
        return (self.samples[-2] + self.samples[-1]) / 2


def _adjusted(pairs: list[tuple[float, float]]) -> float:
    """Mean measured seconds at the reference speed, from (measured, reference) pairs."""
    return REFERENCE_S * sum(m for m, _ in pairs) / sum(r for _, r in pairs)


def run_end_to_end(workload, seed: int, seconds: float, smoke: bool, work: Path):
    """Set up SETUP_REPS times, then for `seconds` time training passes and
    detect passes on the last set-up's corpora. Each timed step is paired
    with the reference job's time around it."""
    from workloads import eval_corpora, generate, input_digests

    cli = Cli(work)
    reference = Reference(cli)
    # (measured seconds, reference seconds around them), one pair per step
    setups: list[tuple[float, float]] = []
    trains: list[tuple[float, float]] = []
    detects: list[tuple[float, float]] = []
    first_reports: dict[int, bytes] = {}  # first report on each evaluation corpus
    first_model: bytes | None = None
    first_digests = None
    for rep in range(SETUP_REPS):
        rep_dir = work / f"setup{rep}"
        rep_dir.mkdir()
        started = perf()
        corpora = generate(workload, seed, smoke, rep_dir)
        trained = cli.train(corpora["train"], rep_dir)
        if trained is None:
            raise RuntimeError("; ".join(cli.problems))
        wall = perf() - started
        around = reference.around()
        setups.append((wall, around))
        trains.append((trained, around))
        digests = input_digests(corpora)
        if first_digests is None:
            first_digests = digests
            first_model = (rep_dir / "invariants.txt").read_bytes()
        else:
            if digests != first_digests:
                cli.fail(f"set-up {rep} generated different inputs than set-up 0")
            if (rep_dir / "invariants.txt").read_bytes() != first_model:
                cli.fail(f"set-up {rep} learned different invariants than set-up 0")
            shutil.rmtree(work / f"setup{rep - 1}")
    evaluations = eval_corpora(corpora)
    evaluation = evaluations[0]

    # Measured passes: `detect` with the last set-up's model, and training
    # passes. Detection gets two thirds of the measured time and training a
    # third: with the reference adjustment, training's spread from run to run
    # was the smaller of the two on both workloads.
    measuring = perf()
    n = detect_passes = 0
    while n < 2 or perf() - measuring < seconds:
        n += 1
        pass_dir = work / f"pass{n}"
        pass_dir.mkdir()
        if 2 * sum(m for m, _ in trains[SETUP_REPS:]) < sum(m for m, _ in detects):
            trained = cli.train(corpora["train"], pass_dir)
            around = reference.around()
            if trained is not None:
                trains.append((trained, around))
                if (pass_dir / "invariants.txt").read_bytes() != first_model:
                    cli.fail(f"pass {n} learned different invariants than the set-ups")
        else:
            k = detect_passes % len(evaluations)
            detect_passes += 1
            report_path = pass_dir / "report.json"
            wall = cli.detect(evaluations[k], rep_dir, report_path)
            around = reference.around()
            if wall is not None:
                detects.append((wall, around))
                report = report_path.read_bytes()
                if k not in first_reports:
                    first_reports[k] = report
                    logs = json.loads(report)["summary"]["logs_processed"]
                    if logs != evaluation.api_lines:
                        cli.fail(
                            f"report covers {logs} logs, corpus has {evaluation.api_lines}"
                        )
                elif report != first_reports[k]:
                    cli.fail(f"pass {n} wrote a different report on evaluation corpus {k}")
        shutil.rmtree(pass_dir)

    quality = {}
    if 0 in first_reports:
        (work / "report.json").write_bytes(first_reports[0])
        if cli.run("eval", "--report", "report.json", "--labels", evaluation.labels,
                   "--out", "metrics.json") is not None:
            quality = _read_json(work / "metrics.json")
    if "eval_in_order" in corpora and first_reports:
        # the same corpus in file order must yield the same report
        in_order = work / "report_in_order.json"
        if cli.detect(corpora["eval_in_order"], rep_dir, in_order) is not None:
            expected = _read_json(in_order)
            for k, report in first_reports.items():
                if _in_file_order(json.loads(report), evaluations[k].order) != expected:
                    cli.fail(f"swapped corpus {k}'s report differs from the in-order report")

    # Whole-run totals rather than medians of passes: on shared 2-vCPU
    # machines the speed was seen to switch between levels up to 60% apart
    # every few seconds, and the median of the passes jumps between the
    # levels where a total over the run averages them. Slower drift, of a
    # third between periods minutes apart, is what the reference removes.
    values = {
        "detect_logs_per_s": evaluation.api_lines / _adjusted(detects) if detects else None,
        "train_s": _adjusted(trains),
        "setup_s": statistics.median(m * REFERENCE_S / r for m, r in setups),
        "peak_rss_mb": cli.peak_rss_kib / 1024,
        "recall": quality.get("recall"),
        "precision": quality.get("precision"),
    }
    unadjusted = {
        "detect_logs_per_s": (
            evaluation.api_lines * len(detects) / sum(m for m, _ in detects)
            if detects else None
        ),
        "train_s": statistics.fmean(m for m, _ in trains),
        "setup_s": statistics.median(m for m, _ in setups),
        "reference_s": statistics.median(reference.samples),
    }
    facts = {
        "unadjusted": unadjusted,
        "samples": {"detect": detects, "train": trains, "setup": setups,
                    "reference_s": reference.samples},
        "problems": cli.problems,
        "eval": quality,
        "inputs": first_digests,
    }
    return cli.attempted, cli.failed, values, facts


# --- traced run: per-layer metrics ------------------------------------------------


def _layer_values(tracers) -> dict:
    """Median self time per layer over passes; counts from the first pass."""
    times: dict[str, list[float]] = {}
    for tracer in tracers:
        for name, seconds in tracer.self_times().items():
            times.setdefault(name + ".s", []).append(seconds)
    out = {name: statistics.median(values) for name, values in times.items()}
    out.update(tracers[0].counts)
    return out


def run_traced(workload, seed: int, seconds: float, smoke: bool, work: Path):
    import layers
    from workloads import generate, input_digests

    from apivet.detector import read_report
    from apivet.dsl import print_invariant
    from apivet.logstore import read_label_file
    from apivet.schema import load_bundle

    attempted = failed = 0
    problems: list[str] = []

    def check(ok: bool, problem: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            problems.append(problem)

    corpora = generate(workload, seed, smoke, work)
    train_corpus, evaluation = corpora["train"], corpora["eval"]
    bundle = load_bundle(evaluation.bundle)
    labels = read_label_file(evaluation.labels)
    detect_tracers = []
    untraced_s: list[float] = []
    traced_s: list[float] = []
    check_rates: list[float] = []
    score_s: list[float] = []

    # training runs once; the timed passes are detect passes
    relationships, invariants = layers.train_untraced(bundle, train_corpus)
    train_tracer = layers.Tracer()
    traced = layers.train_traced(train_tracer, bundle, train_corpus)
    check(
        traced[0] == relationships
        and [print_invariant(inv) for inv in traced[1]]
        == [print_invariant(inv) for inv in invariants],
        "traced training accepted a different model than run_generation",
    )

    def detect_pass():
        wall, result = layers.detect_untraced(
            bundle, evaluation, relationships, invariants, work / "untraced.json"
        )
        check_rates.append(result.logs_processed / result.elapsed_s)
        tracer = layers.Tracer()
        layers.detect_traced(
            tracer, bundle, evaluation, relationships, invariants, work / "traced.json"
        )
        score_s.append(layers.score_seconds(read_report(work / "traced.json"), labels))
        detect_tracers.append(tracer)
        # the report lists every violation with its explanation
        check(
            (work / "traced.json").read_bytes() == (work / "untraced.json").read_bytes(),
            "traced detection reported different violations than check_corpus",
        )
        untraced_s.append(wall)
        traced_s.append(tracer.root_s())

    started = perf()
    n = 0
    while n < MIN_PASSES or perf() - started < seconds:
        n += 1
        detect_pass()

    values = _layer_values(detect_tracers)
    values.update(_layer_values([train_tracer]))
    values["joins.sweep.inversion_share"] = (
        values.pop("joins.sweep.inversions") / values["joins.sweep.groups"]
    )
    values["detector.eval.violation_share"] = (
        values["dsl.explain.violations"] / values["detector.eval.evaluations"]
    )
    values["detector.check_corpus.logs_per_s"] = statistics.median(check_rates)
    values["detector.score.s"] = statistics.median(score_s)
    values["refine.accept_ratio"] = (
        values.pop("refine.refine.accepted") / values["proposer.propose.candidates"]
    )
    values["trace.overhead.s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    values["trace.coverage"] = statistics.median(t.coverage() for t in detect_tracers)

    facts = {
        "passes": n,
        "samples": {"untraced_s": untraced_s, "traced_s": traced_s},
        "all_layers": values,
        "problems": problems,
        "inputs": input_digests(corpora),
    }
    return attempted, failed, values, facts


# --- provenance and output ----------------------------------------------------------


def provenance(
    workload: str, why: str, seed: int, trace: int, smoke: bool, inputs: dict
) -> dict:
    import numpy
    from workloads import SEED_OFFSETS, swap_seeds

    import apivet

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "apivet").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "why": why,
        "seed": seed,
        "seeds": {
            "train": seed + SEED_OFFSETS["train"],
            "eval": seed + SEED_OFFSETS["eval"],
            "swap": swap_seeds(seed),
        },
        "trace": trace,
        "smoke": smoke,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "apivet": apivet.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
        "inputs": inputs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpora, for tests")
    args = parser.parse_args(argv)
    # a terminated run still stops its child command and removes its scratch
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "apivet" / "__init__.py").is_file():
        print(f"error: no apivet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import apivet

    if not Path(apivet.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported apivet from {apivet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    work = WORK / f"{workload.name}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = run_traced if args.trace else run_end_to_end
        attempted, failed, values, facts = runner(
            workload, args.seed, args.seconds, args.smoke, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        value = values.get(metric["name"])
        if value is None:
            failed += 1
            facts["problems"].append(f"no value for {metric['name']}")
        else:
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    record = {
        "provenance": provenance(
            workload.name, why, args.seed, args.trace, args.smoke, facts.pop("inputs")
        ),
        "facts": facts,
        "metrics": metrics,
        "error_rate": failed / attempted,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:>24.6f} {metric['unit']}")
    print(f"{'error_rate':36s} {record['error_rate']:>24.6f} failed/attempted "
          f"({failed}/{attempted})")
    for name, value in facts.get("unadjusted", {}).items():
        if value is not None:
            print(f"unadjusted {name:25s} {value:>24.6f}")
    for problem in facts["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
