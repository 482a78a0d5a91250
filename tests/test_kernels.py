"""The numpy kernels against the slow, obviously-correct oracles in kernel_oracles.py."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sciner import kernels
from sciner import tag_schema as ts

from kernel_oracles import (
    _epoch_sgd_np,
    aggregate_words_ref,
    decode_constrained_ref,
    score_subwords_ref,
    with_zero_row,
)


def random_problem(rng, n_paragraphs=6, dim=256):
    feat = []
    offsets = [0]
    par_offsets = [0]
    labels = []
    mask = []
    for _ in range(n_paragraphs):
        for _ in range(rng.integers(1, 9)):
            k = int(rng.integers(1, 7))
            feat.extend(rng.integers(0, dim, k).tolist())
            offsets.append(len(feat))
            labels.append(int(rng.integers(0, 15)))
            mask.append(int(rng.random() > 0.2))
        par_offsets.append(len(offsets) - 1)
    weights = rng.normal(scale=0.3, size=(dim, 15))
    return (
        weights,
        np.asarray(feat, dtype=np.int64),
        np.asarray(offsets, dtype=np.int64),
        np.asarray(labels, dtype=np.int64),
        np.asarray(mask, dtype=np.uint8),
        np.asarray(par_offsets, dtype=np.int64),
    )


class TestBackendSelection:
    def test_backend_is_known(self):
        assert kernels.BACKEND in ("numba", "numpy")

    def test_env_flag_forces_numpy(self):
        # the child must import the same package, whether or not PYTHONPATH is set
        src = os.path.dirname(os.path.dirname(kernels.__file__))
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, SCINER_BACKEND="numpy", PYTHONPATH=pythonpath)
        out = subprocess.run(
            [sys.executable, "-c", "import sciner.kernels as k; print(k.BACKEND)"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "numpy"


class TestScoreSubwords:
    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            weights, feat, offsets, *_ = random_problem(rng)
            active = kernels.score_subwords(weights, feat, offsets)
            reference = score_subwords_ref(weights, feat, offsets)
            np.testing.assert_allclose(active, reference, atol=1e-12)
            np.testing.assert_allclose(active.sum(axis=1), 1.0, atol=1e-9)

    def test_empty(self):
        weights = np.zeros((8, 15))
        out = kernels.score_subwords(weights, np.zeros(0, np.int64), np.zeros(1, np.int64))
        assert out.shape == (0, 15)


class TestEpochSgd:
    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            weights, feat, offsets, labels, mask, par_offsets = random_problem(rng)
            n_pars = len(par_offsets) - 1
            order = rng.permutation(n_pars).astype(np.int64)
            w_active = with_zero_row(weights)
            w_ref = weights.copy()
            [(loss_a, n_a)] = kernels.epoch_sgd(
                w_active, feat, offsets, labels, mask, par_offsets, [order], 2, 0.5
            )
            loss_r, n_r = _epoch_sgd_np(
                w_ref, feat, offsets, labels, mask, par_offsets, order, 2, 0.5
            )
            assert n_a == n_r == int(mask.sum())
            assert loss_a == pytest.approx(loss_r, rel=1e-10)
            np.testing.assert_allclose(w_active[:-1], w_ref, atol=1e-12)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        weights, feat, offsets, labels, mask, par_offsets = random_problem(rng)
        order = np.arange(len(par_offsets) - 1, dtype=np.int64)
        a = with_zero_row(weights)
        b = with_zero_row(weights)
        kernels.epoch_sgd(a, feat, offsets, labels, mask, par_offsets, [order], 3, 0.7)
        kernels.epoch_sgd(b, feat, offsets, labels, mask, par_offsets, [order], 3, 0.7)
        assert np.array_equal(a, b)

    def test_all_masked_batch_is_noop(self):
        rng = np.random.default_rng(4)
        weights, feat, offsets, labels, mask, par_offsets = random_problem(rng)
        mask[:] = 0
        w = with_zero_row(weights)
        [(loss, n)] = kernels.epoch_sgd(
            w, feat, offsets, labels, mask, par_offsets,
            [np.arange(len(par_offsets) - 1, dtype=np.int64)], 2, 0.5,
        )
        assert n == 0 and loss == 0.0
        assert np.array_equal(w[:-1], weights)


class TestAggregateWords:
    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n_words = int(rng.integers(1, 10))
            word_idx = np.repeat(
                np.arange(n_words), rng.integers(1, 5, size=n_words)
            ).astype(np.int64)
            probs = rng.dirichlet(np.ones(15), size=len(word_idx))
            active = kernels.aggregate_words(probs, word_idx, n_words)
            reference = aggregate_words_ref(probs, word_idx, n_words)
            np.testing.assert_allclose(active, reference, atol=1e-12)

    def test_single_subword_passthrough_exact(self):
        rng = np.random.default_rng(6)
        probs = rng.dirichlet(np.ones(15), size=3)
        word_idx = np.array([0, 1, 2], dtype=np.int64)
        out = kernels.aggregate_words(probs, word_idx, 3)
        assert np.array_equal(out, probs)


class TestDecode:
    def test_matches_numpy_reference_exactly(self):
        legal = ts.LEGAL_TRANSITIONS[:, : ts.NUM_CLASSES].astype(np.uint8)
        start = ts.label_index(ts.O_LABEL)
        rng = np.random.default_rng(7)
        for _ in range(50):
            scores = rng.random((int(rng.integers(0, 12)), 15))
            for gamma in (0.1, 0.5, 0.98):
                la, ca = kernels.decode_constrained(scores, legal, gamma, start)
                lr, cr = decode_constrained_ref(scores, legal, gamma, start)
                assert np.array_equal(la, lr)
                assert np.array_equal(ca, cr)

    def test_ties_and_gate_boundary_match_reference(self):
        # scores on a 1/4 grid: argmax ties and scores equal to gamma are common
        legal = ts.LEGAL_TRANSITIONS[:, : ts.NUM_CLASSES].astype(np.uint8)
        start = ts.label_index(ts.O_LABEL)
        rng = np.random.default_rng(8)
        for _ in range(50):
            scores = rng.integers(0, 5, size=(int(rng.integers(1, 12)), 15)) / 4.0
            for gamma in (0.25, 0.5, 1.0):
                la, ca = kernels.decode_constrained(scores, legal, gamma, start)
                lr, cr = decode_constrained_ref(scores, legal, gamma, start)
                assert np.array_equal(la, lr)
                assert np.array_equal(ca, cr)


# scores and gamma on a 1/4 grid, so argmax ties and a score equal to gamma are common
QUARTERS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def decode_problems(draw):
    """(scores, legal, gamma, start_row): a random (16, 15) uint8 legality
    matrix with at least one legal class per row, 0-40 words."""
    legal = draw(hnp.arrays(np.uint8, (16, 15), elements=st.sampled_from([0, 1, 2, 255])))
    legal[np.arange(16), draw(hnp.arrays(np.int64, 16, elements=st.integers(0, 14)))] = 1
    scores = draw(hnp.arrays(np.float64, (draw(st.integers(0, 40)), 15), elements=QUARTERS))
    gamma = draw(QUARTERS.filter(lambda g: g > 0))
    return scores, legal, gamma, draw(st.integers(0, 15))


@settings(max_examples=300, deadline=None)
@given(decode_problems())
def test_decode_matches_reference_on_any_legality_matrix(problem):
    labels, conf = kernels.decode_constrained(*problem)
    labels_ref, conf_ref = decode_constrained_ref(*problem)
    assert labels.dtype == labels_ref.dtype and conf.dtype == conf_ref.dtype
    assert np.array_equal(labels, labels_ref)
    assert np.array_equal(conf.view(np.int64), conf_ref.view(np.int64))


@st.composite
def sliced_decode_problems(draw):
    """A decode problem plus paragraph bounds `word_at` over its words:
    ragged cuts (a paragraph may be empty), or one word per paragraph, which
    for 0 words is the empty slice."""
    scores, legal, gamma, start_row = draw(decode_problems())
    n = len(scores)
    word_at = draw(st.one_of(
        st.lists(st.integers(0, n), max_size=12).map(lambda cuts: [0, *sorted(cuts), n]),
        st.just(list(range(n + 1))),
    ))
    return scores, legal, gamma, start_row, np.array(word_at, np.int64)


def decode_each_paragraph_ref(scores, legal, gamma, start_row, word_at):
    """decode_constrained_ref on each paragraph, concatenated."""
    outs = [decode_constrained_ref(scores[a:b], legal, gamma, start_row)
            for a, b in zip(word_at[:-1], word_at[1:])]
    return (np.concatenate([np.zeros(0, np.int64), *(labels for labels, _ in outs)]),
            np.concatenate([np.zeros(0), *(conf for _, conf in outs)]))


LEGAL = ts.LEGAL_TRANSITIONS[:, : ts.NUM_CLASSES].astype(np.uint8)


@settings(max_examples=300, deadline=None)
@given(sliced_decode_problems())
@example((np.zeros((0, 15)), LEGAL, 0.5, 0, np.array([0])))  # no paragraphs
@example((np.zeros((0, 15)), LEGAL, 0.5, 0, np.array([0, 0, 0])))  # empty paragraphs
def test_decode_of_a_slice_matches_reference_per_paragraph(problem):
    labels, conf = kernels.decode_constrained(*problem)
    labels_ref, conf_ref = decode_each_paragraph_ref(*problem)
    assert labels.dtype == labels_ref.dtype and conf.dtype == conf_ref.dtype
    assert np.array_equal(labels, labels_ref)
    assert np.array_equal(conf.view(np.int64), conf_ref.view(np.int64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=8), max_size=10),
       st.integers(0, 2**32 - 1))
def test_aggregate_of_a_slice_matches_each_paragraph(subwords_per_word, seed):
    """One aggregate_words call over several paragraphs, with slice-global
    word indices, gives each paragraph's scores bit for bit."""
    rng = np.random.default_rng(seed)
    pieces = []
    for counts in subwords_per_word:
        word_idx = np.repeat(np.arange(len(counts)), counts)
        probs = rng.dirichlet(np.full(15, 0.3), size=len(word_idx))
        probs[rng.random(probs.shape) < 0.05] = 0.0  # log 0 is -inf
        pieces.append((probs, word_idx, len(counts)))
    word_at = np.concatenate(([0], np.cumsum([n for _, _, n in pieces])))
    whole = kernels.aggregate_words(
        np.concatenate([np.zeros((0, 15)), *(probs for probs, _, _ in pieces)]),
        np.concatenate([np.zeros(0, np.int64),
                        *(w + word_at[p] for p, (_, w, _) in enumerate(pieces))]),
        int(word_at[-1]),
    )
    each = np.concatenate([np.zeros((0, 15)),
                           *(kernels.aggregate_words(*piece) for piece in pieces)])
    assert np.array_equal(whole.view(np.int64), each.view(np.int64))
