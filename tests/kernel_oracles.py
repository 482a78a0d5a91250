"""Slow, obviously-correct reference kernels that the fast paths are tested against.

`_epoch_sgd_np` walks the batch one token (subword) at a time; the vectorized
`sciner.kernels.epoch_sgd` must reproduce its weights and loss bit for bit.
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
