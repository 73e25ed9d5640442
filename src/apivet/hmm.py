"""The opt-in hidden Markov sequence model, trained with Baum-Welch.

The one module that imports numpy; `seqmodel` and the training pipeline
import it only when an HMM is trained or scored.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import TrainingError
from .values import Record


class HmmModel(Record):
    __slots__ = ("alphabet", "pi", "trans", "emit", "log_likelihoods", "_index")

    # pi (S,), trans (S, S), emit (S, K)
    def __init__(
        self, alphabet: list[str], pi: np.ndarray, trans: np.ndarray, emit: np.ndarray,
        log_likelihoods: list[float],
    ):
        self.alphabet = alphabet
        self.pi = pi
        self.trans = trans
        self.emit = emit
        self.log_likelihoods = log_likelihoods
        self._index = {sym: i for i, sym in enumerate(alphabet)}

    @property
    def n_states(self) -> int:
        return len(self.pi)


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    totals = matrix.sum(axis=1, keepdims=True)
    out = np.where(totals > 0, matrix / np.where(totals > 0, totals, 1.0), 0.0)
    zero = totals[:, 0] <= 0
    if zero.any():
        out[zero] = 1.0 / matrix.shape[1]
    return out


def _forward_scaled(
    model_pi: np.ndarray,
    model_trans: np.ndarray,
    emit_cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Scaled forward pass; emit_cols[t] is the emission column at step t.

    Returns (alpha_hat, scales, log_likelihood) with
    alpha_hat[t].sum() == 1 and log P = sum(log scales).
    """
    length = emit_cols.shape[0]
    n = len(model_pi)
    alpha_hat = np.empty((length, n))
    scales = np.empty(length)
    cur = model_pi * emit_cols[0]
    total = cur.sum()
    if total <= 0:
        return alpha_hat, scales, float("-inf")
    alpha_hat[0] = cur / total
    scales[0] = total
    for t in range(1, length):
        cur = (alpha_hat[t - 1] @ model_trans) * emit_cols[t]
        total = cur.sum()
        if total <= 0:
            return alpha_hat, scales, float("-inf")
        alpha_hat[t] = cur / total
        scales[t] = total
    return alpha_hat, scales, float(np.log(scales[:length]).sum())


def _backward_scaled(
    model_trans: np.ndarray, emit_cols: np.ndarray, scales: np.ndarray
) -> np.ndarray:
    length, n = emit_cols.shape[0], model_trans.shape[0]
    beta_hat = np.empty((length, n))
    beta_hat[length - 1] = 1.0 / scales[length - 1]
    for t in range(length - 2, -1, -1):
        beta_hat[t] = (model_trans @ (emit_cols[t + 1] * beta_hat[t + 1])) / scales[t]
    return beta_hat


def train_hmm(
    sequences: Iterable[Sequence[str]],
    n_states: int | None = None,
    max_iter: int = 50,
    tol: float = 1e-6,
    seed: int = 0,
) -> HmmModel:
    """Baum-Welch over all sequences with a fixed-seed random start.

    The per-iteration corpus log-likelihood is recorded and is non-decreasing
    up to floating-point slack.
    """
    seqs = [list(s) for s in sequences if len(s) > 0]
    if not seqs:
        raise TrainingError("training corpus has no non-empty sequence")
    alphabet = sorted({sym for seq in seqs for sym in seq})
    index = {sym: i for i, sym in enumerate(alphabet)}
    encoded = [np.array([index[sym] for sym in seq]) for seq in seqs]
    n_sym = len(alphabet)
    if n_states is None:
        n_states = min(8, n_sym)
    if n_states < 1:
        raise TrainingError("n_states must be >= 1")

    rng = np.random.default_rng(seed)
    pi = _normalize_rows(rng.random((1, n_states)) + 0.1)[0]
    trans = _normalize_rows(rng.random((n_states, n_states)) + 0.1)
    emit = _normalize_rows(rng.random((n_states, n_sym)) + 0.1)

    history: list[float] = []
    for _ in range(max_iter):
        pi_acc = np.zeros(n_states)
        trans_acc = np.zeros((n_states, n_states))
        emit_acc = np.zeros((n_states, n_sym))
        total_ll = 0.0
        for obs in encoded:
            emit_cols = emit[:, obs].T  # (T, S)
            alpha_hat, scales, ll = _forward_scaled(pi, trans, emit_cols)
            if not math.isfinite(ll):
                raise TrainingError("sequence has zero probability under the model")
            total_ll += ll
            beta_hat = _backward_scaled(trans, emit_cols, scales)
            gamma = alpha_hat * beta_hat * scales[:, None]
            pi_acc += gamma[0]
            for t in range(len(obs) - 1):
                xi = (
                    trans
                    * np.outer(alpha_hat[t], emit_cols[t + 1] * beta_hat[t + 1])
                )
                trans_acc += xi
            for t, sym in enumerate(obs):
                emit_acc[:, sym] += gamma[t]
        history.append(total_ll)
        pi = pi_acc / pi_acc.sum() if pi_acc.sum() > 0 else pi
        trans = _normalize_rows(trans_acc)
        emit = _normalize_rows(emit_acc)
        if len(history) >= 2 and abs(history[-1] - history[-2]) < tol:
            break
    return HmmModel(
        alphabet=alphabet,
        pi=pi,
        trans=trans,
        emit=emit,
        log_likelihoods=history,
    )


def _hmm_emit_cols(model: HmmModel, sequence: Sequence[str]) -> np.ndarray:
    """Emission column per step; unknown symbols get a uniform floor."""
    n_sym = len(model.alphabet)
    floor = np.full(model.n_states, 1.0 / n_sym)
    cols = np.empty((len(sequence), model.n_states))
    for t, sym in enumerate(sequence):
        j = model._index.get(sym)
        cols[t] = model.emit[:, j] if j is not None else floor
    return cols


def sequence_probability(model: HmmModel, sequence: Sequence[str]) -> float:
    """Raw probability of a non-empty sequence under the model."""
    cols = _hmm_emit_cols(model, sequence)
    _, _, ll = _forward_scaled(model.pi, model.trans, cols)
    return math.exp(ll) if math.isfinite(ll) else 0.0
