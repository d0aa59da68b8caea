"""Training kernels: numba-jitted hot loops with a pure-numpy fallback.

Backend selection happens once, at import time, from the environment
variable ``SLICEVEC_BACKEND``:

* ``numba`` - require numba; fail if it cannot be imported.
* ``numpy`` - skip numba entirely and use the vectorized numpy loop.
* ``auto`` (default) - numba when importable, numpy otherwise.

Both backends consume the random stream identically: pair generation and
negative draws produce bit-identical integer sequences, so the two loops
train on exactly the same data. Floating-point results differ only at
rounding level (dot products and row updates accumulate in different
orders), which means bit-for-bit reproducibility holds per backend, not
across backends.

All mutable loop state crosses the boundary as small numpy arrays:
``state`` is a 1-element uint64 array holding the xorshift64* state,
``cursor`` is an int64[5] array (piece, position, pending-read index,
pending count, pending center token) and ``pend`` is an int32 scratch
buffer of up to window_c context tokens for the current center. The
integer-stream helpers here must stay in lockstep with the Rng class in
rng.py; the parity tests pin them together.
"""

from __future__ import annotations

import bisect
import math
import os

import numpy as np

from .rng import Rng

_ENV_VAR = "SLICEVEC_BACKEND"
_choice = os.environ.get(_ENV_VAR, "auto").lower()
if _choice not in ("auto", "numba", "numpy"):
    raise ValueError(f"{_ENV_VAR} must be auto, numba or numpy, not {_choice!r}")

HAVE_NUMBA = False
if _choice in ("auto", "numba"):
    try:
        from numba import njit, prange

        HAVE_NUMBA = True
    except ImportError:
        if _choice == "numba":
            raise ImportError(f"{_ENV_VAR}=numba but numba is not importable")

BACKEND = "numba" if HAVE_NUMBA else "numpy"

# ---------------------------------------------------------------------------
# pure-python / numpy backend

_INV53 = 2.0 ** -53


def _gen_pairs_py(
    tokens, starts, ends, rng: Rng, cursor, pend, centers, ctxs, half_window, num_skips
) -> None:
    """Fill centers/ctxs with the next len(centers) skip-gram pairs.

    Each center position yields min(num_skips, available) context picks,
    drawn without replacement by a partial Fisher-Yates shuffle over the
    in-window positions (piece boundaries truncate the window). Pairs are
    handed out one per call slot; a center's leftovers wait in pend.
    """
    n_pieces = len(starts)
    piece = int(cursor[0])
    pos = int(cursor[1])
    pi = int(cursor[2])
    pn = int(cursor[3])
    pcen = int(cursor[4])
    avail = [0] * (2 * half_window)
    for b in range(len(centers)):
        while pi >= pn:
            start = int(starts[piece])
            length = int(ends[piece]) - start
            lo = pos - half_window
            if lo < 0:
                lo = 0
            hi = pos + half_window
            if hi > length - 1:
                hi = length - 1
            m = 0
            for q in range(lo, hi + 1):
                if q != pos:
                    avail[m] = q
                    m += 1
            kk = num_skips if num_skips < m else m
            for i in range(kk):
                j = i + rng.below(m - i)
                avail[i], avail[j] = avail[j], avail[i]
                pend[i] = tokens[start + avail[i]]
            pcen = int(tokens[start + pos])
            pi = 0
            pn = kk
            pos += 1
            if pos >= length:
                pos = 0
                piece += 1
                if piece >= n_pieces:
                    piece = 0
        centers[b] = pcen
        ctxs[b] = int(pend[pi])
        pi += 1
    cursor[0] = piece
    cursor[1] = pos
    cursor[2] = pi
    cursor[3] = pn
    cursor[4] = pcen


def _draw_negative_py(cdf, rng: Rng, exclude: int) -> int:
    """One noise-distribution draw, resampling while equal to exclude.

    The draw inverts the cumulative distribution: smallest i with u < cdf[i].
    Every u is below cdf[-1] == 1.0, so that predicate is monotone in i even
    where rounding lifts cdf[-2] above 1.0, and bisect_right finds it.
    """
    while True:
        i = bisect.bisect_right(cdf, rng.next_float())
        if i != exclude:
            return i


def _sigmoid_np(x):
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


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
        for p in range(batch_size):
            exclude = int(ctxs[p])
            for j in range(n_neg):
                negs[p, j] = _draw_negative_py(cdf, rng, exclude)
        cen0 = inp[centers]
        ctx0 = out[ctxs]
        neg0 = out[negs]
        dot_pos = np.einsum("bd,bd->b", cen0, ctx0)
        dot_neg = np.einsum("bd,bjd->bj", cen0, neg0)
        losses = np.logaddexp(0.0, -dot_pos) + np.logaddexp(0.0, dot_neg).sum(axis=1)
        if np.isfinite(losses).all():
            g_pos = _sigmoid_np(dot_pos) - 1.0
            g_neg = _sigmoid_np(dot_neg)
            scale = lr / batch_size  # one SGD step on the batch's mean pair loss
            grad_cen = g_pos[:, None] * ctx0 + np.einsum("bj,bjd->bd", g_neg, neg0)
            np.add.at(inp, centers, -scale * grad_cen)
            coef = np.concatenate([g_pos[:, None], g_neg], axis=1)
            rows = np.concatenate([ctxs[:, None], negs], axis=1)
            grad_out = coef[:, :, None] * cen0[:, None, :]
            np.add.at(out, rows.reshape(-1), (-scale * grad_out).reshape(-1, inp.shape[1]))
        yield losses


def _run_window_numpy(
    tokens,
    starts,
    ends,
    inp,
    out,
    cdf,
    state,
    cursor,
    pend,
    n_batches,
    batch_size,
    half_window,
    num_skips,
    n_neg,
    lr,
    start_step,
):
    """Run n_batches SGD batches; returns (loss_sum, status, step, pair).

    status 0 = ok; status 1 = non-finite pair loss, with the offending
    global batch index and in-batch pair index in the last two slots.
    loss_sum accumulates each batch's mean pair loss.
    """
    rng = Rng.from_state(int(state[0]))
    centers = np.empty(batch_size, np.int32)
    ctxs = np.empty(batch_size, np.int32)
    negs = np.empty((batch_size, n_neg), np.int32)
    batches = _sgd_batch_numpy(inp, out, cdf, rng, centers, ctxs, negs, lr)
    loss_sum = 0.0
    for step in range(n_batches):
        _gen_pairs_py(
            tokens, starts, ends, rng, cursor, pend, centers, ctxs, half_window, num_skips
        )
        losses = next(batches)
        bad = np.flatnonzero(~np.isfinite(losses))
        if len(bad):
            state[0] = rng.state
            return loss_sum, 1, start_step + step, int(bad[0])
        loss_sum += float(losses.sum()) / batch_size
    state[0] = rng.state
    return loss_sum, 0, -1, -1


# ---------------------------------------------------------------------------
# numba backend

if HAVE_NUMBA:
    # uint64 constants: mixing int64 literals into uint64 expressions would
    # promote to float64 under numpy casting rules, so everything the RNG
    # state touches is pinned to uint64 here.
    _STAR = np.uint64(0x2545F4914F6CDD1D)
    _SH11 = np.uint64(11)
    _SH12 = np.uint64(12)
    _SH25 = np.uint64(25)
    _SH27 = np.uint64(27)

    @njit(cache=True)
    def _nb_next_u64(state):
        x = state[0]
        x ^= x >> _SH12
        x ^= x << _SH25
        x ^= x >> _SH27
        state[0] = x
        return x * _STAR

    @njit(cache=True)
    def _nb_next_float(state):
        return (_nb_next_u64(state) >> _SH11) * _INV53

    @njit(cache=True)
    def _nb_below(state, n):
        if n <= 1:
            return np.int64(0)
        return np.int64(_nb_next_u64(state) % np.uint64(n))

    @njit(cache=True)
    def _gen_pairs_nb(
        tokens, starts, ends, state, cursor, pend, centers, ctxs, half_window, num_skips
    ):
        n_pieces = len(starts)
        piece = cursor[0]
        pos = cursor[1]
        pi = cursor[2]
        pn = cursor[3]
        pcen = cursor[4]
        avail = np.empty(2 * half_window, np.int64)
        for b in range(len(centers)):
            while pi >= pn:
                start = starts[piece]
                length = ends[piece] - start
                lo = pos - half_window
                if lo < 0:
                    lo = 0
                hi = pos + half_window
                if hi > length - 1:
                    hi = length - 1
                m = 0
                for q in range(lo, hi + 1):
                    if q != pos:
                        avail[m] = q
                        m += 1
                kk = num_skips if num_skips < m else m
                for i in range(kk):
                    j = i + _nb_below(state, m - i)
                    tmp = avail[i]
                    avail[i] = avail[j]
                    avail[j] = tmp
                    pend[i] = tokens[start + avail[i]]
                pcen = tokens[start + pos]
                pi = 0
                pn = kk
                pos += 1
                if pos >= length:
                    pos = 0
                    piece += 1
                    if piece >= n_pieces:
                        piece = 0
            centers[b] = pcen
            ctxs[b] = pend[pi]
            pi += 1
        cursor[0] = piece
        cursor[1] = pos
        cursor[2] = pi
        cursor[3] = pn
        cursor[4] = pcen

    @njit(cache=True)
    def _draw_negative_nb(cdf, state, exclude):
        n = len(cdf)
        while True:
            u = _nb_next_float(state)
            lo = 0
            hi = n - 1
            while lo < hi:
                mid = (lo + hi) >> 1
                if u < cdf[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            if lo != exclude:
                return lo

    @njit(cache=True)
    def _run_window_nb(
        tokens,
        starts,
        ends,
        inp,
        out,
        cdf,
        state,
        cursor,
        pend,
        n_batches,
        batch_size,
        half_window,
        num_skips,
        n_neg,
        lr,
        start_step,
    ):
        dims = inp.shape[1]
        centers = np.empty(batch_size, np.int32)
        ctxs = np.empty(batch_size, np.int32)
        negs = np.empty((batch_size, n_neg), np.int32)
        cen0 = np.empty((batch_size, dims), np.float64)
        ctx0 = np.empty((batch_size, dims), np.float64)
        neg0 = np.empty((batch_size, n_neg, dims), np.float64)
        g_pos = np.empty(batch_size, np.float64)
        g_neg = np.empty((batch_size, n_neg), np.float64)
        loss_sum = 0.0
        for step in range(n_batches):
            _gen_pairs_nb(
                tokens, starts, ends, state, cursor, pend, centers, ctxs,
                half_window, num_skips,
            )
            for p in range(batch_size):
                exclude = ctxs[p]
                for j in range(n_neg):
                    negs[p, j] = _draw_negative_nb(cdf, state, exclude)
            # snapshot the touched rows so every gradient in the batch is
            # evaluated against the batch-start matrices
            for p in range(batch_size):
                c = centers[p]
                t = ctxs[p]
                for d in range(dims):
                    cen0[p, d] = inp[c, d]
                    ctx0[p, d] = out[t, d]
                for j in range(n_neg):
                    nrow = negs[p, j]
                    for d in range(dims):
                        neg0[p, j, d] = out[nrow, d]
            batch_loss = 0.0
            for p in range(batch_size):
                dot = 0.0
                for d in range(dims):
                    dot += cen0[p, d] * ctx0[p, d]
                g_pos[p] = 0.5 * (math.tanh(0.5 * dot) + 1.0) - 1.0
                if dot >= 0.0:
                    pair_loss = math.log1p(math.exp(-dot))
                else:
                    pair_loss = -dot + math.log1p(math.exp(dot))
                for j in range(n_neg):
                    dn = 0.0
                    for d in range(dims):
                        dn += cen0[p, d] * neg0[p, j, d]
                    g_neg[p, j] = 0.5 * (math.tanh(0.5 * dn) + 1.0)
                    if dn <= 0.0:
                        pair_loss += math.log1p(math.exp(dn))
                    else:
                        pair_loss += dn + math.log1p(math.exp(-dn))
                if not math.isfinite(pair_loss):
                    return loss_sum, 1, start_step + step, p
                batch_loss += pair_loss
            loss_sum += batch_loss / batch_size
            # one SGD step on the batch's mean pair loss: input rows first,
            # then output rows, in pair order
            scale = lr / batch_size
            for p in range(batch_size):
                c = centers[p]
                for d in range(dims):
                    g = g_pos[p] * ctx0[p, d]
                    for j in range(n_neg):
                        g += g_neg[p, j] * neg0[p, j, d]
                    inp[c, d] -= scale * g
            for p in range(batch_size):
                t = ctxs[p]
                for d in range(dims):
                    out[t, d] -= scale * (g_pos[p] * cen0[p, d])
                for j in range(n_neg):
                    nrow = negs[p, j]
                    for d in range(dims):
                        out[nrow, d] -= scale * (g_neg[p, j] * cen0[p, d])
        return loss_sum, 0, -1, -1

    @njit(cache=True, parallel=True)
    def _run_parallel_nb(
        tokens,
        starts2d,
        ends2d,
        n_pieces,
        inp,
        out,
        cdf,
        states,
        cursors,
        pends,
        shard_steps,
        batch_size,
        half_window,
        num_skips,
        n_neg,
        lr,
        loss_every,
        win_sums,
        win_counts,
        statuses,
        abort_steps,
        abort_pairs,
    ):
        n_shards = len(shard_steps)
        n_cols = win_sums.shape[1]
        for s in prange(n_shards):
            starts = starts2d[s, : n_pieces[s]]
            ends = ends2d[s, : n_pieces[s]]
            state = states[s : s + 1]
            cursor = cursors[s]
            pend = pends[s]
            done = 0
            remaining = shard_steps[s]
            while remaining > 0:
                chunk = loss_every if loss_every < remaining else remaining
                loss_sum, status, astep, apair = _run_window_nb(
                    tokens, starts, ends, inp, out, cdf, state, cursor, pend,
                    chunk, batch_size, half_window, num_skips, n_neg, lr, done,
                )
                if status != 0:
                    statuses[s] = status
                    abort_steps[s] = astep
                    abort_pairs[s] = apair
                    break
                w = done // loss_every
                if w < n_cols:
                    win_sums[s, w] += loss_sum
                    win_counts[s, w] += chunk
                done += chunk
                remaining -= chunk

else:
    _run_window_nb = None
    _run_parallel_nb = None
    _gen_pairs_nb = None
    _draw_negative_nb = None
    _nb_next_u64 = None
    _nb_next_float = None
    _nb_below = None


def run_window(*args):
    """Dispatch one telemetry window of batches to the selected backend."""
    if BACKEND == "numba":
        return _run_window_nb(*args)
    return _run_window_numpy(*args)
