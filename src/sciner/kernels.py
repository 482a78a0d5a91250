"""Numeric inner loops: subword scoring, SGD epochs, word aggregation, decoding.

One numpy implementation of each kernel.  `epoch_sgd` is vectorized per
mini-batch and reproduces the token-by-token reference loop in
tests/kernel_oracles.py bit for bit; the tests compare the two.

All kernels work on primitive arrays:
  weights      (n_rows, 15) float64
  feat         flat integer row indices into weights for all subwords
  offsets      (n_subwords + 1) int64, subword s owns feat[offsets[s]:offsets[s+1]]
  labels/mask  per-subword class index / loss-mask
  par_offsets  (n_paragraphs + 1) int64 subword boundaries per paragraph
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def score_subwords(weights, feat, offsets):
    n_sub = len(offsets) - 1
    n_classes = weights.shape[1]
    if n_sub == 0:
        return np.zeros((0, n_classes))
    # reduceat needs non-empty segments; every subword carries >= 1 feature
    logits = np.add.reduceat(weights[feat], offsets[:-1], axis=0)
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def epoch_sgd(weights, feat, offsets, labels, mask, par_offsets, order,
              batch_pars, lr):
    """One epoch of mini-batch SGD on masked cross-entropy, updating `weights` in place.

    Each batch is `batch_pars` paragraphs taken from `order`.  The gradient of
    the batch-mean loss is computed against the pre-update weights, then
    applied.  Every sum runs in the same order as a token-by-token loop would
    (the oracle in tests/kernel_oracles.py), so the weights come out bit for
    bit identical to it.  `weights` must be C-contiguous.  Returns
    (summed loss, unmasked token count).
    """
    if not weights.flags.c_contiguous:
        # reshape(-1) would silently copy and the update would be lost
        raise ValueError("weights must be C-contiguous")
    n_classes = weights.shape[1]
    flat = weights.reshape(-1)
    classes = np.arange(n_classes)
    n_feat = np.diff(offsets)
    total_loss = 0.0
    total_tokens = 0
    for b_start in range(0, len(order), batch_pars):
        batch = order[b_start : b_start + batch_pars]
        counts = par_offsets[batch + 1] - par_offsets[batch]
        shift = par_offsets[batch] - (np.cumsum(counts) - counts)
        tokens = np.arange(counts.sum()) + np.repeat(shift, counts)
        tokens = tokens[mask[tokens] != 0]
        n_tok = len(tokens)
        if n_tok == 0:
            continue
        # (n_tok, kmax) feature rows; padding slots gather 0.0
        k = n_feat[tokens]
        cols = np.arange(k.max())
        pad = cols >= k[:, None]
        rows = feat[np.where(pad, 0, offsets[tokens][:, None] + cols)]
        g = weights[rows]
        g[pad] = 0.0
        # add the feature columns left to right, as ndarray.sum(axis=0) does per token
        z = g[:, 0].copy()
        for j in range(1, len(cols)):
            z += g[:, j]
        m = z.max(axis=1, keepdims=True)
        e = np.exp(z - m)
        s = e.sum(axis=1)
        y = labels[tokens]
        tok = np.arange(n_tok)
        # a running (sequential) sum keeps the token-by-token loss grouping
        total_loss += float(np.cumsum(np.log(s) - (z[tok, y] - m[:, 0]))[-1])
        grad = e / s[:, None]
        grad[tok, y] -= 1.0
        grad *= lr / n_tok
        # flat (row, class) indices in token, feature, class order: subtract.at
        # applies repeated rows in exactly the order of the per-token loop
        keep = ~pad
        idx = (rows[keep] * n_classes)[:, None] + classes
        np.subtract.at(flat, idx.reshape(-1), grad[np.nonzero(keep)[0]].reshape(-1))
        total_tokens += n_tok
    return total_loss, total_tokens


def aggregate_words(probs, word_idx, n_words):
    """word_idx must be sorted, covering 0..n_words-1 (every word >= 1 subword)."""
    n_classes = probs.shape[1]
    if n_words == 0:
        return np.zeros((0, n_classes))
    counts = np.bincount(word_idx, minlength=n_words)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    with np.errstate(divide="ignore"):
        logp = np.log(probs)
    scores = np.exp(np.add.reduceat(logp, starts, axis=0))
    single = counts == 1
    scores[single] = probs[starts[single]]
    return scores


def decode_constrained(scores, legal, gamma, start_row):
    """Each word gets the best class legal after the previous label (lowest
    index on ties) if its score reaches `gamma`, else amb, the last row of
    `legal`.  Returns (labels, each word's best legal score)."""
    # choice table: for each previous label r and word w, the best legal class,
    # its score, and the label w gets after r
    masked = np.where(legal[:, None, :] != 0, scores, -1.0)
    best = masked.argmax(axis=2)
    top = np.take_along_axis(masked, best[:, :, None], axis=2)[:, :, 0]
    gated = np.where(top >= gamma, best, legal.shape[0] - 1)
    # one walk through the table finds each word's previous label
    prev = [start_row]
    for choice in gated.T.tolist():
        prev.append(choice[prev[-1]])
    rows = np.array(prev[:-1], dtype=np.intp)
    words = np.arange(len(rows))
    return gated[rows, words], top[rows, words]

