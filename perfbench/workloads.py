"""Benchmark workloads: fixed-seed benchgen corpora written to files.

Every workload has a clean training corpus and a labelled evaluation corpus.
The seed passed to the benchmark is the only source of randomness, so one
seed always yields byte-identical files; the program under test only ever
sees those files.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

from apivet.benchgen import (
    generate_normal,
    inject_cross_user,
    inject_double_refund,
    inject_field_tamper,
    write_bench,
)

# Every workload trains on 300 sessions: training time grows faster than
# linearly, and 300 sessions learned the same 49 invariants as 1000 at each
# of eight seeds checked, at a sixth of the cost. That leaves room for
# several set-ups and training passes per run.
TRAIN_SESSIONS = 300
SMOKE_TRAIN_SESSIONS = 200
# each corpus draws from its own seed: the run's seed plus an offset
SEED_OFFSETS = {"train": 0, "eval": 10, "swap": 20}
# Detection is timed on this many differently swapped copies of a swapped
# workload's corpus, in turn. How much the join cursors' rewinds cost
# depends on where the swaps fall, and with one pattern per run that, more
# than the program, set the spread between runs of different seeds.
SWAP_PATTERNS = 4
# eval sessions are numbered after the training ones, as in the acceptance suite
EVAL_FIRST_INDEX = 100_000


@dataclass(frozen=True)
class Workload:
    name: str
    sessions: int  # evaluation corpus
    double_refund: int
    cross_user: int
    tamper_per_kind: int
    swap_share: float = 0.0  # share of log lines that start a swapped adjacent pair


# Why each workload was chosen is recorded with it in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("detect_shuffled", 3_000, 30, 30, 8, swap_share=0.10),
        Workload("detect_attack_burst", 2_000, 800, 800, 333),
    )
}

# tiny corpora for the smoke test: same code paths, a second or two per run
SMOKE_SIZES = {
    "detect_shuffled": (300, 10, 10, 3),
    "detect_attack_burst": (300, 100, 100, 30),
}


@dataclass
class Corpus:
    """Paths of one generated corpus; `order` maps new log ids to original ones."""

    logs: str
    binlog: str
    labels: str
    bundle: str
    api_lines: int
    order: list[int] | None = None


def _write(bench, out_dir: str) -> Corpus:
    paths = write_bench(bench, out_dir)
    with open(paths["labels"], encoding="utf-8") as fh:
        api_lines = sum(1 for line in fh if line.strip())
    return Corpus(paths["logs"], paths["binlog"], paths["labels"], paths["bundle"], api_lines)


def make_train_corpus(out_dir: str, seed: int, smoke: bool) -> Corpus:
    sessions = SMOKE_TRAIN_SESSIONS if smoke else TRAIN_SESSIONS
    return _write(generate_normal(sessions, seed), out_dir)


def make_eval_corpus(workload: Workload, out_dir: str, seed: int, smoke: bool) -> Corpus:
    sessions, double_refund, cross_user, tamper = (
        SMOKE_SIZES[workload.name]
        if smoke
        else (workload.sessions, workload.double_refund, workload.cross_user,
              workload.tamper_per_kind)
    )
    # the same seed offsets `apivet benchgen` uses for its injectors
    bench = generate_normal(sessions, seed, first_index=EVAL_FIRST_INDEX)
    bench = inject_double_refund(bench, double_refund, seed + 1)
    bench = inject_cross_user(bench, cross_user, seed + 2)
    bench = inject_field_tamper(bench, per_kind=tamper, seed=seed + 3)
    return _write(bench, out_dir)


def swap_adjacent_lines(corpus: Corpus, out_dir: str, share: float, seed: int) -> Corpus:
    """Copy of `corpus` with a seeded share of adjacent log lines swapped.

    Labels follow their lines: the copy's labels are renumbered to the new
    API line order, and `order[new_id]` is the original log id.
    """
    with open(corpus.logs, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(corpus.labels, encoding="utf-8") as fh:
        labels = [json.loads(line) for line in fh if line.strip()]
    # tag each API line with its original log id (env lines get None)
    tagged = []
    api_id = 0
    for line in lines:
        if json.loads(line).get("kind") == "api":
            tagged.append((api_id, line))
            api_id += 1
        else:
            tagged.append((None, line))
    rng = random.Random(seed)
    i = 0
    while i < len(tagged) - 1:
        if rng.random() < share:
            tagged[i], tagged[i + 1] = tagged[i + 1], tagged[i]
            i += 2
        else:
            i += 1
    order = [old for old, _ in tagged if old is not None]
    os.makedirs(out_dir, exist_ok=True)
    out = Corpus(
        logs=os.path.join(out_dir, "logs.jsonl"),
        binlog=corpus.binlog,
        labels=os.path.join(out_dir, "labels.jsonl"),
        bundle=corpus.bundle,
        api_lines=corpus.api_lines,
        order=order,
    )
    with open(out.logs, "w", encoding="utf-8") as fh:
        fh.write("\n".join(line for _, line in tagged) + "\n")
    with open(out.labels, "w", encoding="utf-8") as fh:
        for new_id, old_id in enumerate(order):
            fh.write(json.dumps(dict(labels[old_id], log_id=new_id)) + "\n")
    return out


def swap_seeds(seed: int) -> list[int]:
    """Seeds of the swap patterns; no two run seeds share one."""
    first = (seed + SEED_OFFSETS["swap"]) * SWAP_PATTERNS
    return list(range(first, first + SWAP_PATTERNS))


def generate(workload: Workload, seed: int, smoke: bool, out: Path) -> dict[str, Corpus]:
    """Training and evaluation corpora; a swapped workload's evaluation
    corpora are `eval`, `eval1`, ... plus the unshuffled `eval_in_order`."""
    corpora = {
        "train": make_train_corpus(str(out / "train"), seed + SEED_OFFSETS["train"], smoke),
        "eval": make_eval_corpus(
            workload, str(out / "eval"), seed + SEED_OFFSETS["eval"], smoke
        ),
    }
    if workload.swap_share:
        in_order = corpora["eval_in_order"] = corpora.pop("eval")
        for k, swap_seed in enumerate(swap_seeds(seed)):
            name = f"eval{k}" if k else "eval"
            corpora[name] = swap_adjacent_lines(
                in_order, str(out / f"eval_swapped{k}"), workload.swap_share, swap_seed
            )
    return corpora


def eval_corpora(corpora: dict[str, Corpus]) -> list[Corpus]:
    """The evaluation corpora that detect passes take in turn, `eval` first."""
    return [corpora["eval"]] + [
        corpora[f"eval{k}"] for k in range(1, SWAP_PATTERNS) if f"eval{k}" in corpora
    ]


def input_digests(corpora: dict[str, Corpus]) -> dict[str, str]:
    """sha256 of every generated input file, keyed by corpus and file kind."""
    return {
        f"{name}.{kind}": sha256_of(getattr(corpus, kind))
        for name, corpus in corpora.items()
        for kind in ("logs", "binlog", "labels", "bundle")
    }


def sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
