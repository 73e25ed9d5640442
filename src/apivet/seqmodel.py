"""Sequence models over per-session API call traces.

The default model is a first-order Markov chain with Laplace smoothing and a
synthetic start symbol, kept in plain lists of floats: its count table is
(1 + number of APIs) square, far too small to pay for loading numpy. A
hidden Markov model trained with Baum-Welch (`hmm`, the one module that
imports numpy) is available as an opt-in alternative; the scoring functions
here take either, and load `hmm` only for an HMM. Models live only in
memory: relationship inference trains one per run and nothing saves or
loads it.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import TrainingError
from .values import Record

START = "<START>"


class MarkovModel(Record):
    __slots__ = ("alphabet", "alpha", "counts", "transition", "_index")

    # alphabet: START first, then the api names in sorted order; counts:
    # n x n raw bigram counts, START row = sequence heads
    def __init__(self, alphabet: list[str], alpha: float, counts: list[list[float]]):
        self.alphabet = alphabet
        self.alpha = alpha
        self.counts = counts
        self._index = {sym: i for i, sym in enumerate(alphabet)}
        n = len(alphabet)
        self.transition: list[list[float]] = []
        for row in counts:
            denom = sum(row) + alpha * n
            if denom > 0:
                self.transition.append([(count + alpha) / denom for count in row])
            else:
                # No evidence and no smoothing mass: fall back to uniform so
                # every row stays a probability distribution.
                self.transition.append([1.0 / n] * n)


def train_markov(sequences: Iterable[Sequence[str]], alpha: float = 1.0) -> MarkovModel:
    """Count-and-normalize training with additive smoothing.

    transition[i][j] = (count(i->j) + alpha) / (count(i->.) + alpha * n)
    where n is the alphabet size including the start symbol.
    """
    if alpha < 0:
        raise TrainingError("alpha must be >= 0")
    seqs = [list(s) for s in sequences]
    symbols = sorted({sym for seq in seqs for sym in seq})
    if not symbols:
        raise TrainingError("training corpus has no non-empty sequence")
    alphabet = [START] + symbols
    index = {sym: i for i, sym in enumerate(alphabet)}
    counts = [[0.0] * len(alphabet) for _ in alphabet]
    for seq in seqs:
        prev = 0
        for sym in seq:
            cur = index[sym]
            counts[prev][cur] += 1
            prev = cur
    return MarkovModel(alphabet=alphabet, alpha=alpha, counts=counts)


def transition_score(model: MarkovModel, src: str, dst: str) -> float:
    """Smoothed P(dst | src); unseen symbols score as zero-count entries."""
    n = len(model.alphabet)
    i = model._index.get(src)
    j = model._index.get(dst)
    if i is not None and j is not None:
        return model.transition[i][j]
    row_total = 0.0 if i is None else sum(model.counts[i])
    denom = row_total + model.alpha * n
    if denom <= 0:
        return 0.0
    return model.alpha / denom


def sequence_probability(model, sequence: Sequence[str]) -> float:
    """Raw probability of the sequence under the model (a MarkovModel or
    an hmm.HmmModel)."""
    if not sequence:
        return 1.0
    if not isinstance(model, MarkovModel):
        from . import hmm

        return hmm.sequence_probability(model, sequence)
    p = 1.0
    prev = START
    for sym in sequence:
        p *= transition_score(model, prev, sym)
        prev = sym
    return p


def forward_likelihood(model, sequence: Sequence[str]) -> float:
    """Per-step geometric-mean score: exp(log P / max(1, len - 1))."""
    p = sequence_probability(model, sequence)
    if p <= 0:
        return 0.0
    return math.exp(math.log(p) / max(1, len(sequence) - 1))


def pair_score(model, prior: str, follower: str) -> float:
    """Adjacency score for 'follower directly after prior'."""
    if isinstance(model, MarkovModel):
        return transition_score(model, prior, follower)
    return forward_likelihood(model, [prior, follower])
