"""The vectorized SGD epochs against the token-by-token oracle: bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sciner import kernels

from kernel_oracles import _epoch_sgd_np, with_zero_row


def make_problem(paragraphs, dim, seed, n_classes=15):
    """Kernel arrays from `paragraphs`: lists of (features, label, unmasked) subwords."""
    feat, offsets, labels, mask, par_offsets = [], [0], [], [], [0]
    for subwords in paragraphs:
        for features, label, unmasked in subwords:
            feat.extend(features)
            offsets.append(len(feat))
            labels.append(label)
            mask.append(unmasked)
        par_offsets.append(len(labels))
    weights = np.random.default_rng(seed).normal(scale=0.3, size=(dim, n_classes))
    return (
        weights,
        np.asarray(feat, dtype=np.int64),
        np.asarray(offsets, dtype=np.int64),
        np.asarray(labels, dtype=np.int64),
        np.asarray(mask, dtype=np.uint8),
        np.asarray(par_offsets, dtype=np.int64),
    )


def random_paragraphs(rng, n_pars, max_feats, dim, p_unmasked=0.8, n_classes=15):
    # a small `dim` makes feature rows repeat inside a batch, so the order in
    # which repeated rows are updated matters
    return [
        [
            (
                rng.integers(0, dim, int(rng.integers(1, max_feats + 1))).tolist(),
                int(rng.integers(0, n_classes)),
                bool(rng.random() < p_unmasked),
            )
            for _ in range(int(rng.integers(0, 9)))
        ]
        for _ in range(n_pars)
    ]


def assert_bit_exact(problem, order, batch_pars, lr):
    weights, feat, offsets, labels, mask, par_offsets = problem
    fast = with_zero_row(weights)
    ref = weights.copy()
    [(loss_f, n_f)] = kernels.epoch_sgd(
        fast, feat, offsets, labels, mask, par_offsets, [order], batch_pars, lr
    )
    loss_r, n_r = _epoch_sgd_np(
        ref, feat, offsets, labels, mask, par_offsets, order, batch_pars, lr
    )
    assert np.array_equal(fast[:-1], ref)
    assert loss_f == loss_r
    assert n_f == n_r


@pytest.mark.parametrize("max_feats", [1, 2, 7, 20])
@pytest.mark.parametrize("batch_pars", [1, 2, 3, 4, 5])
def test_random_problems(max_feats, batch_pars):
    rng = np.random.default_rng(100 * max_feats + batch_pars)
    for _ in range(6):
        dim = int(rng.integers(4, 64))
        paragraphs = random_paragraphs(rng, int(rng.integers(1, 12)), max_feats, dim)
        problem = make_problem(paragraphs, dim, int(rng.integers(1 << 30)))
        order = rng.permutation(len(paragraphs)).astype(np.int64)
        assert_bit_exact(problem, order, batch_pars, float(rng.choice([1e-4, 0.5, 16.0])))


def test_batch_larger_than_corpus():
    rng = np.random.default_rng(1)
    paragraphs = random_paragraphs(rng, 4, 20, 16)
    order = rng.permutation(4).astype(np.int64)
    assert_bit_exact(make_problem(paragraphs, 16, 1), order, 9, 0.5)


def test_all_masked_batches_are_skipped():
    rng = np.random.default_rng(2)
    paragraphs = random_paragraphs(rng, 9, 12, 16)
    for p in (0, 1, 2, 6, 7, 8):
        paragraphs[p] = [(f, y, False) for f, y, _ in paragraphs[p]]
    paragraphs[4].append(([3, 5], 2, True))
    order = np.arange(9, dtype=np.int64)
    assert_bit_exact(make_problem(paragraphs, 16, 2), order, 3, 0.5)


def test_zero_subword_paragraphs():
    rng = np.random.default_rng(3)
    paragraphs = random_paragraphs(rng, 8, 5, 16)
    paragraphs[0] = paragraphs[1] = paragraphs[5] = []
    paragraphs[3].append(([1], 4, True))
    order = np.arange(8, dtype=np.int64)
    for batch_pars in (1, 2, 3):
        assert_bit_exact(make_problem(paragraphs, 16, 3), order, batch_pars, 0.5)


def test_non_contiguous_weights_rejected():
    rng = np.random.default_rng(4)
    paragraphs = random_paragraphs(rng, 3, 4, 16, p_unmasked=1.0)
    weights, *rest = make_problem(paragraphs, 16, 4)
    weights = with_zero_row(weights)
    for strided in (np.asfortranarray(weights), np.hstack([weights, weights])[:, :15]):
        before = strided.copy()
        with pytest.raises(ValueError, match="C-contiguous"):
            kernels.epoch_sgd(strided, *rest, [np.arange(3, dtype=np.int64)], 2, 0.5)
        assert np.array_equal(strided, before)


DIM = 12
subword = st.tuples(
    st.lists(st.integers(0, DIM - 1), min_size=1, max_size=20),
    st.integers(0, 14),
    st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(
    paragraphs=st.lists(st.lists(subword, max_size=6), min_size=1, max_size=8),
    batch_pars=st.integers(1, 10),
    lr=st.sampled_from([1e-4, 0.5, 16.0]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_property_matches_oracle(paragraphs, batch_pars, lr, seed, data):
    order = np.asarray(data.draw(st.permutations(range(len(paragraphs)))), dtype=np.int64)
    assert_bit_exact(make_problem(paragraphs, DIM, seed), order, batch_pars, lr)


def assert_epochs_bit_exact(problem, orders, batch_pars, lr):
    """One `epoch_sgd` call over `orders` against the oracle run once per order."""
    weights, feat, offsets, labels, mask, par_offsets = problem
    fast = with_zero_row(weights)
    ref = weights.copy()
    results = kernels.epoch_sgd(
        fast, feat, offsets, labels, mask, par_offsets, orders, batch_pars, lr
    )
    expected = [
        _epoch_sgd_np(ref, feat, offsets, labels, mask, par_offsets, order, batch_pars, lr)
        for order in orders
    ]
    assert results == expected
    assert np.array_equal(fast[:-1], ref)
    assert np.array_equal(fast[-1].view(np.int64), np.zeros(15, np.int64))


@settings(max_examples=150, deadline=None)
@given(
    paragraphs=st.lists(st.lists(subword, max_size=6), min_size=1, max_size=8),
    n_epochs=st.integers(1, 4),
    batch_pars=st.integers(1, 10),
    lr=st.sampled_from([1e-4, 0.5, 16.0]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_property_epochs_match_oracle_loop(paragraphs, n_epochs, batch_pars, lr, seed, data):
    # DIM rows for up to 20 features per subword: rows repeat within a batch
    orders = [
        np.asarray(data.draw(st.permutations(range(len(paragraphs)))), dtype=np.int64)
        for _ in range(n_epochs)
    ]
    assert_epochs_bit_exact(make_problem(paragraphs, DIM, seed), orders, batch_pars, lr)


def test_paragraphs_without_unmasked_tokens_over_epochs():
    rng = np.random.default_rng(5)
    paragraphs = random_paragraphs(rng, 7, 9, 16)
    paragraphs[2] = [(f, y, False) for f, y, _ in paragraphs[2]]
    paragraphs[4] = []
    paragraphs[6] = [(f, y, False) for f, y, _ in paragraphs[6]] + [([2, 3], 1, True)]
    orders = [rng.permutation(7).astype(np.int64) for _ in range(3)]
    for batch_pars in (1, 2, 4):
        assert_epochs_bit_exact(make_problem(paragraphs, 16, 5), orders, batch_pars, 0.5)


def test_batch_larger_than_corpus_over_epochs():
    rng = np.random.default_rng(6)
    paragraphs = random_paragraphs(rng, 3, 20, 16)
    orders = [rng.permutation(3).astype(np.int64) for _ in range(4)]
    assert_epochs_bit_exact(make_problem(paragraphs, 16, 6), orders, 50, 0.5)


def test_no_orders_returns_nothing_and_leaves_weights():
    rng = np.random.default_rng(7)
    weights, *rest = make_problem(random_paragraphs(rng, 4, 6, 16), 16, 7)
    weights = with_zero_row(weights)
    before = weights.copy()
    assert kernels.epoch_sgd(weights, *rest, [], 2, 0.5) == []
    assert np.array_equal(weights, before)


def test_all_masked_corpus_is_a_noop_per_epoch():
    rng = np.random.default_rng(8)
    paragraphs = [[(f, y, False) for f, y, _ in par] for par in random_paragraphs(rng, 5, 6, 16)]
    weights, *rest = make_problem(paragraphs, 16, 8)
    weights = with_zero_row(weights)
    before = weights.copy()
    orders = [np.arange(5, dtype=np.int64), np.arange(5, dtype=np.int64)[::-1]]
    assert kernels.epoch_sgd(weights, *rest, orders, 2, 0.5) == [(0.0, 0), (0.0, 0)]
    assert np.array_equal(weights, before)


def test_zero_row_stays_zero():
    # every feature row is hit with a large step, the padding row never
    rng = np.random.default_rng(9)
    paragraphs = random_paragraphs(rng, 10, 20, 4, p_unmasked=1.0)
    weights, *rest = make_problem(paragraphs, 4, 9)
    weights = with_zero_row(weights)
    before = weights.copy()
    orders = [rng.permutation(10).astype(np.int64) for _ in range(5)]
    kernels.epoch_sgd(weights, *rest, orders, 3, 16.0)
    assert np.array_equal(weights[-1].view(np.int64), np.zeros(15, np.int64))
    assert (weights[:-1] != before[:-1]).all()


def test_nonzero_last_row_rejected():
    rng = np.random.default_rng(10)
    weights, *rest = make_problem(random_paragraphs(rng, 3, 4, 16, p_unmasked=1.0), 16, 10)
    before = weights.copy()
    with pytest.raises(ValueError, match="last row"):
        kernels.epoch_sgd(weights, *rest, [np.arange(3, dtype=np.int64)], 2, 0.5)
    assert np.array_equal(weights, before)


def test_feature_on_the_zero_row_rejected():
    rng = np.random.default_rng(11)
    paragraphs = random_paragraphs(rng, 3, 4, 16, p_unmasked=1.0)
    paragraphs[1].append(([15, 16], 3, True))  # 16 is the zero row's index
    weights, *rest = make_problem(paragraphs, 16, 11)
    weights = with_zero_row(weights)
    before = weights.copy()
    with pytest.raises(ValueError, match="zero row"):
        kernels.epoch_sgd(weights, *rest, [np.arange(3, dtype=np.int64)], 2, 0.5)
    assert np.array_equal(weights, before)


# The kernel pairs the class columns as complex128 on a working copy, padded
# with a zero column when the class count is odd.  These tests compare bit
# patterns: np.array_equal takes -0.0 for 0.0.

def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def assert_same_bits(problem, orders, batch_pars, lr):
    """One `epoch_sgd` call against the oracle per order: weights and losses
    bit for bit, the caller's own array updated, its zero row left zero."""
    weights, feat, offsets, labels, mask, par_offsets = problem
    fast = with_zero_row(weights)
    held = fast[:-1]  # a view: the update must land in the caller's memory
    ref = weights.copy()
    results = kernels.epoch_sgd(
        fast, feat, offsets, labels, mask, par_offsets, orders, batch_pars, lr
    )
    expected = [
        _epoch_sgd_np(ref, feat, offsets, labels, mask, par_offsets, order, batch_pars, lr)
        for order in orders
    ]
    assert [n for _, n in results] == [n for _, n in expected]
    assert np.array_equal(bits([x for x, _ in results]), bits([x for x, _ in expected]))
    assert np.array_equal(bits(held), bits(ref))
    assert np.array_equal(bits(fast[-1]), np.zeros(weights.shape[1], np.int64))
    return fast


@pytest.mark.parametrize("n_classes", [1, 2, 14, 15, 16])
def test_class_widths_match_oracle_bits(n_classes):
    rng = np.random.default_rng(20 + n_classes)
    for batch_pars in (1, 3, 8):
        dim = int(rng.integers(4, 40))
        paragraphs = random_paragraphs(rng, 9, 12, dim, n_classes=n_classes)
        problem = make_problem(paragraphs, dim, int(rng.integers(1 << 30)), n_classes=n_classes)
        orders = [rng.permutation(9).astype(np.int64) for _ in range(3)]
        assert_same_bits(problem, orders, batch_pars, float(rng.choice([1e-4, 0.5, 16.0])))


@pytest.mark.parametrize("n_classes", [1, 14, 15])
def test_negative_zero_weights_match_oracle_bits(n_classes):
    # rows 0-5 are touched, rows 6-11 never; each half holds whole -0.0 rows
    # and scattered -0.0 entries.  Logits of +-800 make some probabilities
    # underflow to 0, so -0.0 - 0.0 keeps a touched entry at -0.0.
    rng = np.random.default_rng(30 + n_classes)
    paragraphs = random_paragraphs(rng, 8, 6, 6, p_unmasked=1.0, n_classes=n_classes)
    paragraphs[0].append(([0, 1, 2, 3, 4, 5], 0, True))
    weights, *rest = make_problem(paragraphs, 12, 30, n_classes=n_classes)
    weights[rng.random(weights.shape) < 0.3] = 800.0
    weights[[0, 3, 6, 9]] = -0.0
    weights[rng.random(weights.shape) < 0.2] = -0.0
    orders = [rng.permutation(8).astype(np.int64) for _ in range(2)]
    fast = assert_same_bits((weights, *rest), orders, 2, 0.5)
    negative_zero = bits(fast[:-1]) == bits(-0.0)
    assert negative_zero[:6].any() and negative_zero[6:].any()


def test_many_feature_slots_one_token_batches_match_oracle_bits():
    # 40-64 features per token over 24 rows of widely spread magnitudes: the
    # slots must be added in index order, which one-token batches expose
    rng = np.random.default_rng(40)
    dim = 24
    paragraphs = [
        [(rng.integers(0, dim, int(rng.integers(40, 65))).tolist(), int(rng.integers(0, 15)), True)]
        for _ in range(12)
    ]
    weights, *rest = make_problem(paragraphs, dim, 40)
    weights *= 10.0 ** rng.integers(-8, 9, size=(dim, 1))
    feat, offsets = rest[0], rest[1]
    # the order is visible: the reverse fold differs in some token's logits
    forward = [weights[feat[a:b]].sum(axis=0) for a, b in zip(offsets[:-1], offsets[1:])]
    backward = [weights[feat[a:b][::-1]].sum(axis=0) for a, b in zip(offsets[:-1], offsets[1:])]
    assert not np.array_equal(bits(forward), bits(backward))
    orders = [rng.permutation(12).astype(np.int64) for _ in range(3)]
    assert_same_bits((weights, *rest), orders, 1, 1e-4)


def test_mixed_feature_counts_keep_a_negative_zero_pad_row():
    # 12-, 14- and 16-feature tokens share batches, so the shorter ones carry
    # pad slots; the update walks those slots too, and the pad row must come
    # out of every batch with its own bits, here -0.0
    rng = np.random.default_rng(50)
    dim = 20
    paragraphs = [
        [
            (rng.integers(0, dim, int(rng.choice([12, 14, 16]))).tolist(),
             int(rng.integers(0, 15)), bool(rng.random() < 0.9))
            for _ in range(int(rng.integers(1, 7)))
        ]
        for _ in range(10)
    ]
    weights, feat, offsets, labels, mask, par_offsets = make_problem(paragraphs, dim, 50)
    fast = with_zero_row(weights)
    fast[-1] = -0.0
    ref = weights.copy()
    orders = [rng.permutation(10).astype(np.int64) for _ in range(3)]
    results = kernels.epoch_sgd(fast, feat, offsets, labels, mask, par_offsets, orders, 3, 0.5)
    expected = [
        _epoch_sgd_np(ref, feat, offsets, labels, mask, par_offsets, order, 3, 0.5)
        for order in orders
    ]
    assert [n for _, n in results] == [n for _, n in expected]
    assert np.array_equal(bits([x for x, _ in results]), bits([x for x, _ in expected]))
    assert np.array_equal(fast[:-1].view(np.int64), ref.view(np.int64))
    assert np.array_equal(fast[-1].view(np.int64), np.full(15, bits(-0.0)))
