"""Sequence models: smoothed bigram counts and the scaled-forward HMM."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apivet.errors import TrainingError
from apivet.hmm import train_hmm
from apivet.seqmodel import (
    START,
    forward_likelihood,
    pair_score,
    sequence_probability,
    train_markov,
    transition_score,
)

from oracles import (
    close,
    forward_by_hand,
    hmm_path_sum,
    markov_oracle,
    markov_sequence_prob,
)

SEQS = st.lists(
    st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=6),
    min_size=1,
    max_size=8,
)


def _bigrams(seqs):
    """Bigram counts with "^" heading every sequence, as markov_oracle counts."""
    counts = {}
    for seq in seqs:
        prev = "^"
        for sym in seq:
            counts[(prev, sym)] = counts.get((prev, sym), 0) + 1
            prev = sym
    return counts


class TestMarkov:
    def test_smoothed_two_sequence_corpus(self):
        # [[a,b],[a,c]] with alpha=1: alphabet {START,a,b,c}, n=4.
        model = train_markov([["a", "b"], ["a", "c"]], alpha=1.0)
        assert model.alphabet == [START, "a", "b", "c"]
        # start row saw a twice: (2+1)/(2+4)
        assert close(transition_score(model, START, "a"), 3 / 6)
        # a -> b observed once out of two transitions from a: (1+1)/(2+4)
        assert close(transition_score(model, "a", "b"), 2 / 6)
        assert close(transition_score(model, "a", "c"), 2 / 6)
        # unseen a -> a keeps smoothing mass: (0+1)/(2+4)
        assert close(transition_score(model, "a", "a"), 1 / 6)
        # b row has no outgoing evidence: uniform 1/4 per entry
        assert close(transition_score(model, "b", "a"), 1 / 4)

    def test_unsmoothed_deterministic_corpus(self):
        model = train_markov([["a", "b"], ["a", "b"]], alpha=0.0)
        assert close(transition_score(model, "a", "b"), 1.0)
        assert close(transition_score(model, START, "a"), 1.0)
        assert close(pair_score(model, "a", "b"), 1.0)

    def test_rows_sum_to_one(self):
        model = train_markov([["a", "b"], ["b", "c", "a"]], alpha=0.7)
        sums = np.sum(model.transition, axis=1)
        assert np.allclose(sums, 1.0, atol=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(SEQS, st.just(0.0) | st.sampled_from([0.3, 1.0, 2.7]) | st.floats(0.0, 10.0))
    def test_scores_are_the_float_formula_exactly(self, seqs, alpha):
        # the same float operations in the same order, so scores are not
        # merely close to the formula but equal to it, bit for bit
        model = train_markov(seqs, alpha=alpha)
        alphabet, probs = markov_oracle(seqs, alpha)
        n = len(alphabet)
        counts = _bigrams(seqs)
        for src in alphabet:
            row_total = sum(c for (head, _), c in counts.items() if head == src)
            for dst in alphabet:
                got = transition_score(
                    model, START if src == "^" else src, START if dst == "^" else dst
                )
                assert got == probs[(src, dst)]
            # an unseen destination keeps the row's smoothing mass
            denom = row_total + alpha * n
            unseen = transition_score(model, START if src == "^" else src, "zzz")
            assert unseen == (alpha / denom if denom > 0 else 0.0)
        unseen_src = transition_score(model, "zzz", alphabet[-1])
        assert unseen_src == (alpha / (alpha * n) if alpha * n > 0 else 0.0)

    def test_zero_alpha_evidence_free_row_is_uniform(self):
        model = train_markov([["a", "b"]], alpha=0.0)
        # b never transitions onward; the row still sums to one
        i = model.alphabet.index("b")
        assert np.allclose(model.transition[i], 1.0 / len(model.alphabet))

    def test_unseen_symbols(self):
        model = train_markov([["a", "b"]], alpha=1.0)
        n = len(model.alphabet)
        # unknown source: zero-count row under smoothing
        assert close(transition_score(model, "zzz", "a"), 1 / n)
        # unknown destination from a seen source with one outgoing transition
        assert close(transition_score(model, "a", "zzz"), 1 / (1 + n))
        model0 = train_markov([["a", "b"]], alpha=0.0)
        assert transition_score(model0, "zzz", "a") == 0.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(TrainingError):
            train_markov([], alpha=1.0)
        with pytest.raises(TrainingError):
            train_markov([[]], alpha=1.0)
        with pytest.raises(TrainingError):
            train_markov([["a"]], alpha=-0.5)

    @settings(max_examples=80, deadline=None)
    @given(SEQS, st.sampled_from([0.0, 0.3, 1.0, 2.5]))
    def test_matches_count_and_normalize_oracle(self, seqs, alpha):
        seqs = [s for s in seqs if s]
        if not seqs:
            return
        model = train_markov(seqs, alpha=alpha)
        oracle_alphabet, probs = markov_oracle(seqs, alpha)
        assert model.alphabet == [START] + oracle_alphabet[1:]
        for src in oracle_alphabet:
            for dst in oracle_alphabet:
                got = transition_score(
                    model, START if src == "^" else src, START if dst == "^" else dst
                )
                assert close(got, probs[(src, dst)])

    @settings(max_examples=50, deadline=None)
    @given(SEQS)
    def test_duplicating_the_corpus_changes_nothing_at_zero_alpha(self, seqs):
        seqs = [s for s in seqs if s]
        if not seqs:
            return
        once = train_markov(seqs, alpha=0.0)
        twice = train_markov(seqs + seqs, alpha=0.0)
        assert np.allclose(once.transition, twice.transition, atol=1e-12)

    def test_sequence_probability_chains_transitions(self):
        seqs = [["a", "b"], ["a", "c"], ["b", "a"]]
        model = train_markov(seqs, alpha=1.0)
        _, probs = markov_oracle(seqs, 1.0)
        for seq in (["a"], ["a", "b"], ["c", "a", "b"], []):
            assert close(sequence_probability(model, seq), markov_sequence_prob(probs, seq))

    def test_forward_likelihood_is_per_step(self):
        model = train_markov([["a", "b"], ["a", "c"]], alpha=1.0)
        p = sequence_probability(model, ["a", "b", "c"])
        assert close(forward_likelihood(model, ["a", "b", "c"]), math.exp(math.log(p) / 2))
        assert forward_likelihood(model, []) == 1.0


class TestHmm:
    CORPUS = [["a", "b", "c"], ["a", "b"], ["a", "c", "b"], ["b", "c"]] * 3

    def test_single_state_reduces_to_unigram(self):
        model = train_hmm(self.CORPUS, n_states=1, seed=0)
        flat = [s for seq in self.CORPUS for s in seq]
        for j, sym in enumerate(model.alphabet):
            assert close(model.emit[0, j], flat.count(sym) / len(flat), tol=1e-6)
        assert close(float(model.pi[0]), 1.0)

    def test_length_three_probabilities_sum_to_one(self):
        model = train_hmm(self.CORPUS, n_states=2, seed=3)
        total = sum(
            sequence_probability(model, list(seq))
            for seq in itertools.product(model.alphabet, repeat=3)
        )
        assert abs(total - 1.0) < 1e-6

    def test_forward_equals_path_enumeration(self):
        rng = random.Random(7)
        for n_states in (1, 2, 3):
            model = train_hmm(self.CORPUS, n_states=n_states, seed=11)
            pi = model.pi.tolist()
            trans = model.trans.tolist()
            emit = model.emit.tolist()
            for _ in range(8):
                length = rng.randint(1, 4)
                seq = [rng.choice(model.alphabet) for _ in range(length)]
                idx = [model.alphabet.index(s) for s in seq]
                expected = hmm_path_sum(pi, trans, emit, idx)
                by_hand = forward_by_hand(pi, trans, emit, idx)
                got = sequence_probability(model, seq)
                assert close(got, expected)
                assert close(got, by_hand)

    def test_training_likelihood_never_decreases(self):
        model = train_hmm(self.CORPUS, n_states=3, seed=5, max_iter=50)
        lls = model.log_likelihoods
        assert len(lls) >= 2
        for before, after in zip(lls, lls[1:]):
            assert after >= before - 1e-9

    def test_same_seed_same_model(self):
        a = train_hmm(self.CORPUS, n_states=2, seed=42)
        b = train_hmm(self.CORPUS, n_states=2, seed=42)
        assert np.array_equal(a.pi, b.pi)
        assert np.array_equal(a.trans, b.trans)
        assert np.array_equal(a.emit, b.emit)

    def test_rows_are_distributions(self):
        model = train_hmm(self.CORPUS, n_states=3, seed=9)
        assert np.allclose(model.pi.sum(), 1.0, atol=1e-9)
        assert np.allclose(model.trans.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(model.emit.sum(axis=1), 1.0, atol=1e-9)

    def test_unknown_symbol_gets_uniform_floor(self):
        model = train_hmm(self.CORPUS, n_states=2, seed=1)
        p = sequence_probability(model, ["a", "zzz"])
        assert 0.0 < p < 1.0

    def test_default_state_count_and_bad_input(self):
        model = train_hmm(self.CORPUS, seed=0)
        assert 1 <= model.n_states <= len(model.alphabet)
        with pytest.raises(TrainingError):
            train_hmm([], seed=0)
        with pytest.raises(TrainingError):
            train_hmm(self.CORPUS, n_states=0, seed=0)

    def test_pair_score_orders_plausible_adjacency(self):
        model = train_hmm(self.CORPUS, n_states=2, seed=2)
        # b directly follows a in most training sequences; d is unseen
        assert pair_score(model, "a", "b") > pair_score(model, "a", "d")
