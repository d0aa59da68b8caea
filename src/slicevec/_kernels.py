"""Training kernels: the numpy SGD batch step and its negative draws.

trainer.train and the batch API (sgd_step, neg_sample) share these
helpers, so both paths make the same bytes; the pairs come from
trainer.BatchCursor. A step works on a whole batch at once: every negative
draw of the batch at once, repaired after each rejection, read in blocks
from one rng.Rng stream in the order that one draw at a time takes them.
"""

from __future__ import annotations

import numpy as np

from .rng import Rng, to_floats

BACKEND = "numpy"  # the one training engine; run records report it

_SCATTER_ELEMENTS = 1 << 14  # matrix elements per 1-D scatter call


def _draw_negatives_py(cdf, rng: Rng, excludes, n_neg):
    """Noise draws for len(excludes) rows of n_neg; row p resamples while excludes[p].

    Each draw inverts the cumulative distribution: smallest i with u < cdf[i].
    Every u is below cdf[-1] == 1.0, so that predicate is monotone in i even
    where rounding lifts cdf[-2] above 1.0, and a right-sided binary search
    finds it. Slots take draws in row order, and a rejection moves every later
    slot one draw on. A pass peeks one draw per open slot, a sixteenth and one
    more, and fills the open slots from them, again from each rejection on,
    while they reach the last open slot. rng consumes exactly the draws used,
    as one slot at a time would.
    """
    excl = np.repeat(np.asarray(excludes, dtype=np.int64), n_neg)
    out = np.empty(len(excl), dtype=np.int64)
    slots, at = len(excl), 0  # slots before at are final
    while at < slots:
        lag, n = at, slots - at  # slot s >= at takes idx[s - lag]
        idx = np.searchsorted(cdf, to_floats(rng.peek(n + (n >> 4) + 1)), side="right")
        while slots - lag <= len(idx):
            out[at:] = idx[at - lag : slots - lag]
            hit = out[at:] == excl[at:]
            k = int(hit.argmax())
            if not hit[k]:
                at = slots
                break
            at += k
            lag -= 1  # slot at rejected its draw
        rng.skip(at - lag)
    return out.reshape(-1, n_neg)


def _sigmoid_np(x):
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def _add_rows_at(mat, rows, vals) -> None:
    """np.add.at(mat, rows, vals) for whole rows, as 1-D ufunc.at calls.

    Each element gets the same additions in the same order as in the 2-D
    call, so the result is the same bit for bit; numpy 2.4's 1-D path is
    about 3.5x faster for 768 rows at dims 64 and 256. Rows go in order, in
    runs of at most _SCATTER_ELEMENTS elements, so the flat index stays small.
    """
    if not mat.flags.c_contiguous:
        np.add.at(mat, rows, vals)
        return
    dims = mat.shape[1]
    flat = mat.reshape(-1)
    cols = np.arange(dims)
    step = max(1, _SCATTER_ELEMENTS // dims)
    for a in range(0, len(rows), step):
        idx = np.multiply(rows[a : a + step], dims, dtype=np.intp)[:, None] + cols
        np.add.at(flat, idx.reshape(-1), vals[a : a + step].reshape(-1))


def _sgd_batch_numpy(inp, out, cdf, rng: Rng, centers, ctxs, negs, lr):
    """Generator of SGD batch steps; each next() yields one step's pair losses.

    A step works on the pairs that centers and ctxs hold when next() is
    called. It fills negs with each pair's negatives, drawn in batch order
    and excluding the pair's context token. Gradients are evaluated against
    the matrices as they stood at the start of the batch (snapshot
    semantics); the summed updates are then applied row-sequentially in pair
    order, all input-matrix rows first, then the context/negative rows of
    the output matrix. When any pair loss is non-finite both matrices are
    left as they were.

    A generator keeps a batch's work arrays alive until the next batch
    replaces them. Freed together on return, they let malloc trim the heap,
    and every batch faulted its pages back in (glibc on a 2-vCPU Xeon:
    18% slower at dims 256).
    """
    batch_size, n_neg = negs.shape
    while True:
        negs[:] = _draw_negatives_py(cdf, rng, ctxs, n_neg)
        cen0 = inp[centers]
        ctx0 = out[ctxs]
        neg0 = out[negs]
        # a diverging run is reported by the caller from the losses, so the
        # overflow and invalid-value warnings on the way there are noise
        with np.errstate(over="ignore", invalid="ignore"):
            dot_pos = np.einsum("bd,bd->b", cen0, ctx0)
            dot_neg = np.einsum("bd,bjd->bj", cen0, neg0)
            losses = np.logaddexp(0.0, -dot_pos) + np.logaddexp(0.0, dot_neg).sum(axis=1)
            if np.isfinite(losses).all():
                g_pos = _sigmoid_np(dot_pos) - 1.0
                g_neg = _sigmoid_np(dot_neg)
                scale = lr / batch_size  # one SGD step on the batch's mean pair loss
                grad_cen = g_pos[:, None] * ctx0 + np.einsum("bj,bjd->bd", g_neg, neg0)
                _add_rows_at(inp, centers, -scale * grad_cen)
                coef = np.concatenate([g_pos[:, None], g_neg], axis=1)
                rows = np.concatenate([ctxs[:, None], negs], axis=1)
                grad_out = coef[:, :, None] * cen0[:, None, :]
                _add_rows_at(out, rows.reshape(-1), (-scale * grad_out).reshape(-1, inp.shape[1]))
        yield losses

