"""Numeric inner loops: subword scoring, SGD epochs, word aggregation, decoding.

One numpy implementation of each kernel.  `epoch_sgd` runs all epochs of a
training call in one call: it lays out the unmasked tokens' feature rows once,
as one padded id matrix that both the forward pass and the update of each
mini-batch read.  A batch is a few slices and vectorized steps on a working
copy of the weights whose class columns are paired as complex128, so that an
update takes one `np.subtract.at` per pair of classes.  It reproduces the
token-by-token reference loop in tests/kernel_oracles.py bit for bit; the
tests compare the two, bit pattern by bit pattern.

All kernels work on primitive arrays:
  weights      (n_rows, 15) float64; for `epoch_sgd` the last row is zero and
               is no feature's row
  feat         flat integer row indices into weights for all subwords
  offsets      (n_subwords + 1) int64 from 0 to len(feat); subword s owns
               feat[offsets[s]:offsets[s+1]]
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


def _masked_layout(feat, offsets, labels, mask, par_offsets, pad_row):
    """The part of SGD that depends on the corpus alone, built once per call.

    Returns None when no token is unmasked, else
      padded  (kmax, n_masked) int32 row ids: column t holds unmasked token
              t's feature rows, then `pad_row`; feature-major, so that each
              feature slot of a batch is one contiguous block
      y       each unmasked token's label
      tok_at  paragraph p's unmasked tokens are tok_at[p]:tok_at[p + 1]
              (a list, for Python slicing)
    """
    masked = np.flatnonzero(mask)
    if len(masked) == 0:
        return None
    counts = np.diff(offsets)
    k = counts[masked]
    live = np.arange(k.max()) < k[:, None]
    # the unmasked tokens' ids in token order, selected by a bool per feature
    ids = feat[np.repeat(mask.astype(bool), counts)]
    if ids.max() >= pad_row or ids.min() < 0:
        raise ValueError("feature ids must index the rows before the zero row")
    padded = np.full(live.shape[::-1], pad_row, dtype=np.int32)
    padded.T[live] = ids
    return padded, labels[masked], np.searchsorted(masked, par_offsets).tolist()


def epoch_sgd(weights, feat, offsets, labels, mask, par_offsets, orders,
              batch_pars, lr):
    """Mini-batch SGD on masked cross-entropy, updating `weights` in place:
    one epoch per paragraph order in `orders`, all epochs in this one call.

    Each batch is `batch_pars` paragraphs taken from its epoch's order.  The
    gradient of the batch-mean loss is computed against the pre-update
    weights, then applied.  Every sum runs in the same order as a
    token-by-token loop would (the oracle in tests/kernel_oracles.py), so the
    weights come out bit for bit identical to it: the feature slots are added
    by one reduce over the outer axis of the batch's padded rows, and the
    update walks the same padded rows token by token, subtracting each pair
    of class columns as one complex column, which makes the same float
    subtractions in the same order.  The batches run on that complex working
    copy, and it is written back into `weights` at the end.  `weights` must
    be C-contiguous, and its last row must be zero and no feature's: padding
    gathers it, and its bits are put back after each batch's update.
    Returns one (summed loss, unmasked token count) per epoch.
    """
    if not weights.flags.c_contiguous:
        # the row-major layout `tagger.train` allocates; no other is tested
        raise ValueError("weights must be C-contiguous")
    if len(weights) == 0 or weights[-1].any():
        raise ValueError("the last row of weights must be zero")
    layout = _masked_layout(feat, offsets, labels, mask, par_offsets, len(weights) - 1)
    if layout is None:  # every batch is empty
        return [(0.0, 0) for _ in orders]
    padded, y, tok_at = layout
    n_classes = weights.shape[1]
    # an odd class count gets a zero column, so that the columns pair up
    work = np.zeros((len(weights), n_classes + n_classes % 2))
    work[:, :n_classes] = weights
    pad = work[-1].copy()
    pairs = work.view(np.complex128)
    columns = [pairs[:, c] for c in range(pairs.shape[1])]
    results = []
    for order in orders:
        order = order.tolist()
        total_loss = 0.0
        total_tokens = 0
        for b_start in range(0, len(order), batch_pars):
            batch = order[b_start : b_start + batch_pars]
            spans = [slice(tok_at[p], tok_at[p + 1]) for p in batch]
            rows = np.concatenate([padded[:, span] for span in spans], axis=1)
            n_tok = rows.shape[1]
            if n_tok == 0:
                continue
            # a reduce over the outer axis of the (kmax, n_tok, pairs) gather
            # adds the feature slots left to right, as ndarray.sum(axis=0)
            # does per token
            z = pairs.take(rows, axis=0).sum(axis=0).view(np.float64)[:, :n_classes]
            # class-major, one pass per class; a max is exact in any order
            m = np.ascontiguousarray(z.T).max(axis=0)
            e = z - m[:, None]
            np.exp(e, out=e)
            s = e.sum(axis=1)
            yb = np.concatenate([y[span] for span in spans])
            tok = np.arange(n_tok)
            # a running (sequential) sum keeps the token-by-token loss grouping
            total_loss += float(np.cumsum(np.log(s) - (z[tok, yb] - m))[-1])
            grad = np.zeros((n_tok, work.shape[1]))
            np.divide(e, s[:, None], out=grad[:, :n_classes])
            grad[tok, yb] -= 1.0
            grad *= lr / n_tok
            # one update per column pair, rows in token then feature slot
            # order (a pad slot updates only the pad row, restored below):
            # subtract.at applies a repeated row in exactly the order of the
            # per-token loop, and no two pairs share an element
            idb = rows.T.astype(np.intp, order="C").ravel()
            step = np.repeat(grad.view(np.complex128).T, len(rows), axis=1)
            for column, column_step in zip(columns, step):
                np.subtract.at(column, idb, column_step)
            work[-1] = pad
            total_tokens += n_tok
        results.append((total_loss, total_tokens))
    weights[:] = work[:, :n_classes]
    return results


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


def decode_constrained(scores, legal, gamma, start_row, word_at=None):
    """Each word gets the best class legal after the previous label (lowest
    index on ties) if its score reaches `gamma`, else amb, the last row of
    `legal`.  Returns (labels, each word's best legal score).

    The words of paragraph p are `scores[word_at[p]:word_at[p + 1]]`, and
    each paragraph starts after `start_row`; `word_at=None` is one paragraph.
    """
    n = len(scores)
    if word_at is None:
        word_at = [0, n]
    # choice table, one distinct legality row at a time: for each word w, the
    # best class legal after a label with that row, its score, and the label
    # w gets after it (previous labels that allow the same classes share a row)
    distinct, row_of = np.unique(legal != 0, axis=0, return_inverse=True)
    row_of = row_of.ravel()  # its shape with `axis` differs across numpy 2.x releases
    by_class = np.ascontiguousarray(scores.T)
    best = np.empty((len(distinct), n), np.intp)
    top = np.empty((len(distinct), n))
    words = np.arange(n)
    for r, allowed in enumerate(distinct):
        cols = np.flatnonzero(allowed)
        legal_scores = by_class[cols]
        pick = legal_scores.argmax(axis=0)
        best[r] = cols[pick]
        top[r] = legal_scores[pick, words]
    gated = np.where(top >= gamma, best, len(legal) - 1)
    # walk word position t of every paragraph at once, longest paragraphs
    # first, so that the paragraphs still running at t are a prefix
    word_at = np.asarray(word_at, np.int64)
    lengths = np.diff(word_at)
    order = np.argsort(-lengths, kind="stable")
    at = word_at[:-1][order]
    running = np.searchsorted(-lengths[order], -np.arange(lengths.max(initial=0)), side="left")
    prev = np.full(len(at), start_row, np.intp)  # each paragraph's last label
    rows = np.empty(n, np.intp)  # the table row each word is read from
    for t, k in enumerate(running.tolist()):
        w = at[:k] + t
        rows[w] = row_of[prev[:k]]
        prev[:k] = gated[rows[w], w]
    return gated[rows, words], top[rows, words]

