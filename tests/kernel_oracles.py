"""Slow, obviously-correct reference kernels that the fast paths are tested against.

`_epoch_sgd_np` walks the batch one token (subword) at a time; the vectorized
`sciner.kernels.epoch_sgd` must reproduce its weights and loss bit for bit.
`score_subwords_ref`, `aggregate_words_ref` and `decode_constrained_ref` work
one subword or one word at a time.  `gate_label_ref` is the argmax-then-gate
rule that `autoannotate.gate_label` must match.
"""

import numpy as np


def _token_loss_grad_np(weights, feat, offsets, labels, tokens):
    """Probs, per-token loss, for the given token (subword) indices."""
    n = len(tokens)
    n_classes = weights.shape[1]
    probs = np.empty((n, n_classes))
    loss = 0.0
    for i, t in enumerate(tokens):
        z = weights[feat[offsets[t] : offsets[t + 1]]].sum(axis=0)
        m = z.max()
        e = np.exp(z - m)
        s = e.sum()
        probs[i] = e / s
        loss += np.log(s) - (z[labels[t]] - m)
    return probs, loss


def _epoch_sgd_np(weights, feat, offsets, labels, mask, par_offsets, order,
                  batch_pars, lr):
    total_loss = 0.0
    total_tokens = 0
    n_pars = len(order)
    for b_start in range(0, n_pars, batch_pars):
        batch = order[b_start : b_start + batch_pars]
        tokens = np.concatenate(
            [np.arange(par_offsets[p], par_offsets[p + 1]) for p in batch]
        )
        tokens = tokens[mask[tokens] != 0]
        n_tok = len(tokens)
        if n_tok == 0:
            continue
        # gradient of mean cross-entropy over the batch, computed against the
        # pre-update weights, then applied
        probs, loss = _token_loss_grad_np(weights, feat, offsets, labels, tokens)
        grad = probs
        grad[np.arange(n_tok), labels[tokens]] -= 1.0
        grad *= lr / n_tok
        rows = []
        reps = []
        for i, t in enumerate(tokens):
            k = offsets[t + 1] - offsets[t]
            rows.append(feat[offsets[t] : offsets[t + 1]])
            reps.append(np.full(k, i))
        rows = np.concatenate(rows)
        reps = np.concatenate(reps)
        np.subtract.at(weights, rows, grad[reps])
        total_loss += loss
        total_tokens += n_tok
    return total_loss, total_tokens


def score_subwords_ref(weights, feat, offsets):
    """Per subword: sum its feature rows, then softmax over the classes."""
    n_sub = len(offsets) - 1
    probs = np.zeros((n_sub, weights.shape[1]))
    for s in range(n_sub):
        z = weights[feat[offsets[s] : offsets[s + 1]]].sum(axis=0)
        e = np.exp(z - z.max())
        probs[s] = e / e.sum()
    return probs


def aggregate_words_ref(probs, word_idx, n_words):
    """Per word: the product of its subword distributions, taken in log space;
    a word with a single subword keeps that distribution unchanged."""
    scores = np.zeros((n_words, probs.shape[1]))
    for w in range(n_words):
        rows = probs[word_idx == w]
        if len(rows) == 1:
            scores[w] = rows[0]
        else:
            with np.errstate(divide="ignore"):
                scores[w] = np.exp(np.log(rows).sum(axis=0))
    return scores


def decode_constrained_ref(scores, legal, gamma, start_row):
    """Per word: the best class legal after the previous label (the lowest index
    wins a tie), kept if its score is >= gamma, else amb (the last legal row)."""
    amb = legal.shape[0] - 1
    labels = np.zeros(len(scores), dtype=np.int64)
    conf = np.zeros(len(scores))
    prev = start_row
    for w, row in enumerate(scores):
        allowed = np.flatnonzero(legal[prev, : len(row)])
        best = allowed[np.argmax(row[allowed])]
        conf[w] = row[best]
        labels[w] = best if row[best] >= gamma else amb
        prev = labels[w]
    return labels, conf


def gate_label_ref(scores, gamma):
    """Class index of the argmax (lowest index on ties) if it reaches gamma, else 15 (amb)."""
    best = int(np.argmax(scores))
    return best if scores[best] >= gamma else len(scores)
