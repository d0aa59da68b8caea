"""Training kernels: pair and negative streams against scalar oracles, golden bytes."""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from slicevec import _kernels
from slicevec.rng import BlockRng, Rng
from slicevec.slicer import EncodedCorpus, Vocabulary, Slice
from slicevec.trainer import (
    BatchCursor,
    EmbeddingMatrix,
    NoiseDistribution,
    TrainingConfig,
    generate_batch,
    sgd_step,
    train,
)

def random_layout(rnd, min_len=2, max_len=25, max_pieces=4):
    lengths = [rnd.randrange(min_len, max_len) for _ in range(rnd.randrange(1, max_pieces + 1))]
    ends = np.cumsum(np.array(lengths, dtype=np.int64))
    starts = ends - np.array(lengths, dtype=np.int64)
    tokens = np.arange(int(ends[-1]), dtype=np.int32)  # unique token per position
    return tokens, starts, ends, lengths


def test_pair_stream_structure():
    # with position-unique tokens the pair stream maps back to positions,
    # so the windowing rules can be checked against an independent walk
    rnd = random.Random(17)
    for _ in range(40):
        tokens, starts, ends, lengths = random_layout(rnd)
        half_window = rnd.randrange(1, 4)
        num_skips = rnd.randrange(1, 2 * half_window + 1)
        rng = Rng(rnd.randrange(1 << 30))
        cursor = np.zeros(5, dtype=np.int64)
        pend = np.zeros(2 * half_window, dtype=np.int32)
        stream = []
        for _ in range(10):
            centers = np.empty(37, dtype=np.int32)
            ctxs = np.empty(37, dtype=np.int32)
            _kernels._gen_pairs_py(
                tokens, starts, ends, rng, cursor, pend, centers, ctxs, half_window, num_skips
            )
            stream.extend(zip(centers.tolist(), ctxs.tolist()))

        def window_of(piece, pos):
            lo = max(0, pos - half_window)
            hi = min(lengths[piece] - 1, pos + half_window)
            return [q for q in range(lo, hi + 1) if q != pos]

        i = 0
        piece, pos = 0, 0
        while True:
            window = window_of(piece, pos)
            k = min(num_skips, len(window))
            if i + k > len(stream):
                break
            base = int(starts[piece])
            chunk = stream[i : i + k]
            assert all(c == base + pos for c, _ in chunk)
            picked = [ctx - base for _, ctx in chunk]
            assert len(set(picked)) == k
            assert all(q in window for q in picked)
            i += k
            pos += 1
            if pos >= lengths[piece]:
                pos = 0
                piece = (piece + 1) % len(lengths)


def _gen_pairs_by_walk(
    tokens, starts, ends, rng, cursor, pend, centers, ctxs, half_window, num_skips
):
    """One center at a time, one Rng value per swap: the stream _gen_pairs_py must reproduce."""
    piece, pos, pi, pn, pcen = (int(v) for v in cursor)
    avail = [0] * (2 * half_window)
    for b in range(len(centers)):
        while pi >= pn:
            start = int(starts[piece])
            length = int(ends[piece]) - start
            lo, hi = max(pos - half_window, 0), min(pos + half_window, length - 1)
            m = 0
            for q in range(lo, hi + 1):
                if q != pos:
                    avail[m] = q
                    m += 1
            kk = min(num_skips, m)
            for i in range(kk):
                j = i + rng.below(m - i)
                avail[i], avail[j] = avail[j], avail[i]
                pend[i] = tokens[start + avail[i]]
            pcen, pi, pn = int(tokens[start + pos]), 0, kk
            pos += 1
            if pos >= length:
                pos, piece = 0, (piece + 1) % len(starts)
        centers[b] = pcen
        ctxs[b] = pend[pi]
        pi += 1
    cursor[:] = (piece, pos, pi, pn, pcen)


def test_pair_generation_matches_scalar_walk():
    rnd = random.Random(19)
    for trial in range(40):
        tokens, starts, ends, _ = random_layout(rnd, max_pieces=5)
        if trial % 2:  # pieces in another order than their tokens
            order = list(range(len(starts)))
            rnd.shuffle(order)
            starts, ends = starts[order], ends[order]
        half_window = rnd.randrange(1, 4)
        num_skips = rnd.randrange(1, 2 * half_window + 1)
        seed = rnd.randrange(1 << 40)
        rng, ref = Rng(seed), Rng(seed)
        stream = BlockRng(rng) if trial % 3 else rng
        cur, cur_ref = np.zeros(5, np.int64), np.zeros(5, np.int64)
        pend, pend_ref = np.zeros(2 * half_window, np.int32), np.zeros(2 * half_window, np.int32)
        for _ in range(15):
            n = rnd.choice((1, 2, 3, 17, 128, 300))
            got = np.empty(n, np.int32), np.empty(n, np.int32)
            expected = np.empty(n, np.int32), np.empty(n, np.int32)
            _kernels._gen_pairs_py(
                tokens, starts, ends, stream, cur, pend, *got, half_window, num_skips
            )
            _gen_pairs_by_walk(
                tokens, starts, ends, ref, cur_ref, pend_ref, *expected, half_window, num_skips
            )
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])
            assert np.array_equal(cur, cur_ref)
            assert rng.state == ref.state


def test_pair_generation_rejects_short_pieces():
    tokens = np.arange(5, dtype=np.int32)
    starts, ends = np.array([0, 4], np.int64), np.array([4, 5], np.int64)
    out = np.empty(4, np.int32), np.empty(4, np.int32)
    with pytest.raises(ValueError, match="2 tokens"):
        _kernels._gen_pairs_py(
            tokens, starts, ends, Rng(1), np.zeros(5, np.int64), np.zeros(4, np.int32),
            *out, 2, 2,
        )


def _draw_by_linear_scan(cdf, rng, exclude):
    while True:
        u = rng.next_float()
        i = next(i for i in range(len(cdf)) if u < cdf[i])
        if i != exclude:
            return i


def test_negative_draw_matches_linear_scan():
    rnd = random.Random(37)
    cdfs = [
        NoiseDistribution.from_counts(
            np.array([rnd.randrange(0, 60) for _ in range(rnd.randrange(2, 40))])
        ).cdf
        for _ in range(12)
    ]
    # rounding can lift the second-to-last entry above the forced final 1.0;
    # a repeated entry is a zero-probability token
    cdfs += [
        np.array([0.25, 0.5, 1.0 + 2.0**-52, 1.0]),
        np.array([0.5, 1.0 + 2.0**-52, 1.0]),
        np.array([0.3, 0.3, 0.7, 1.0 + 2.0**-52, 1.0]),
    ]
    for cdf in cdfs:
        seed = rnd.randrange(1 << 40)
        rng, oracle_rng = Rng(seed), Rng(seed)
        for i in range(400):
            exclude = i % 2
            a = _kernels._draw_negative_py(cdf, rng, exclude)
            assert a == _draw_by_linear_scan(cdf, oracle_rng, exclude)
        assert rng.state == oracle_rng.state


def test_batched_negatives_match_one_draw_at_a_time():
    rnd = random.Random(43)
    cdfs = [
        NoiseDistribution.from_counts(
            np.array([rnd.randrange(0, 60) for _ in range(rnd.randrange(3, 40))])
        ).cdf
        for _ in range(6)
    ]
    cdfs += [
        np.array([0.25, 0.5, 1.0 + 2.0**-52, 1.0]),
        np.array([0.5, 1.0 + 2.0**-52, 1.0]),
        np.array([0.3, 0.3, 0.7, 1.0 + 2.0**-52, 1.0]),
        # two tokens: about half of all draws are rejected, often several in a row
        NoiseDistribution.from_counts(np.array([3, 4])).cdf,
        np.array([0.02, 1.0]),
    ]
    for cdf in cdfs:
        seed = rnd.randrange(1 << 40)
        rng, one, oracle = Rng(seed), Rng(seed), Rng(seed)
        stream = BlockRng(rng)
        for _ in range(8):
            rows, n_neg = rnd.choice((1, 3, 128)), rnd.choice((1, 2, 5))
            excludes = np.array([rnd.randrange(len(cdf)) for _ in range(rows)], np.int32)
            got = _kernels._draw_negatives_py(cdf, rnd.choice((stream, rng)), excludes, n_neg)
            assert got.shape == (rows, n_neg)
            for p, exclude in enumerate(excludes.tolist()):
                for j in range(n_neg):
                    assert got[p, j] == _kernels._draw_negative_py(cdf, one, exclude)
                    assert got[p, j] == _draw_by_linear_scan(cdf, oracle, exclude)
            assert rng.state == one.state == oracle.state


def _tiny_training_setup():
    pieces = [np.array([1, 2, 3, 4, 5, 1, 2], np.int32), np.array([3, 1, 4, 5], np.int32)]
    corpus = EncodedCorpus.from_ids(pieces)
    ranked = [(Slice((pc,)), 6 - pc) for pc in range(5)]
    vocab = Vocabulary(ranked, unk_count=2)
    return corpus, vocab


def test_batch_api_reproduces_numpy_window_bitwise():
    corpus, vocab = _tiny_training_setup()
    config = TrainingConfig(
        dims=8, window_c=4, num_skips_k=2, negative_samples=3,
        learning_rate=0.2, batch_size=16, steps=20, seed=5,
    )
    rng = Rng(config.seed)
    emb = EmbeddingMatrix.initialize(vocab.size, config.dims, rng)
    cursor = BatchCursor.start(corpus, config, rng)
    noise = NoiseDistribution.from_vocabulary(vocab)
    inp, out = emb.input_vectors.copy(), emb.output_vectors.copy()
    state, position, pend = cursor.state.copy(), cursor.position.copy(), cursor.pend.copy()
    loss_sum, status, _, _ = _kernels._run_window_numpy(
        cursor.tokens, cursor.starts, cursor.ends, inp, out, noise.cdf, state, position,
        pend, config.steps, config.batch_size, config.window_c // 2, config.num_skips_k,
        config.negative_samples, config.learning_rate, 0,
    )
    assert status == 0
    total = 0.0
    for _ in range(config.steps):
        batch = generate_batch(corpus, config, cursor)
        step_rng = Rng.from_state(int(cursor.state[0]))
        total += sgd_step(emb, batch, config, noise, step_rng)
        cursor.state[0] = step_rng.state
    assert total == loss_sum
    assert np.array_equal(emb.input_vectors, inp)
    assert np.array_equal(emb.output_vectors, out)
    assert cursor.state[0] == state[0]
    assert np.array_equal(cursor.position, position)


# sha256 of input_vectors + output_vectors bytes and the loss trace of the
# tiny training run below, as the one-value-at-a-time numpy trainer made them
GOLDEN_TINY_SHA256 = "df76c70352e7c8d19d3c4a4d5d1dde0407112c81cb478823fa80de53b0a86fa7"
GOLDEN_TINY_LOSSES = [
    (50, 2.7685130968813034),
    (100, 2.6562357260003506),
    (150, 2.2382432196440583),
    (200, 2.0873035112218172),
]


def test_numpy_training_reproduces_golden_bytes():
    corpus, vocab = _tiny_training_setup()
    config = TrainingConfig(
        dims=8, window_c=4, num_skips_k=2, negative_samples=3,
        learning_rate=0.2, batch_size=16, steps=200, seed=5, loss_every=50,
    )
    emb, trace = train(corpus, vocab, config)
    digest = hashlib.sha256(
        emb.input_vectors.tobytes() + emb.output_vectors.tobytes()
    ).hexdigest()
    assert digest == GOLDEN_TINY_SHA256
    assert trace.checkpoints == GOLDEN_TINY_LOSSES


def test_backend_env_var_is_ignored():
    # one training engine whatever SLICEVEC_BACKEND holds: slicebench sets
    # it and refuses any run whose recorded backend is not numpy
    src = os.path.dirname(os.path.dirname(_kernels.__file__))
    for value in ("numba", "bogus"):
        env = dict(os.environ, PYTHONPATH=src, SLICEVEC_BACKEND=value)
        result = subprocess.run(
            [sys.executable, "-c",
             "import slicevec.trainer; from slicevec import _kernels; print(_kernels.BACKEND)"],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "numpy"
