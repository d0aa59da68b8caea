"""Training kernels: pair and negative streams against scalar oracles, golden bytes."""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys

import numpy as np
from rng_oracle import ScalarRng

from slicevec import _kernels
from slicevec.rng import Rng
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

def random_cursor(rnd, max_pieces=4):
    """A cursor over random piece lengths whose tokens are their positions."""
    lengths = [rnd.randrange(2, 25) for _ in range(rnd.randrange(1, max_pieces + 1))]
    ends = np.cumsum(lengths)
    pieces = [np.arange(end - n, end) for n, end in zip(lengths, ends)]
    half_window = rnd.randrange(1, 4)
    config = TrainingConfig(
        dims=4, window_c=2 * half_window, num_skips_k=rnd.randrange(1, 2 * half_window + 1)
    )
    rng = Rng(rnd.randrange(1 << 40))
    cursor = BatchCursor.start(EncodedCorpus.from_ids(pieces), config, rng)
    return cursor, lengths, rng


def test_pair_stream_structure():
    # with position-unique tokens the pair stream maps back to positions,
    # so the windowing rules can be checked against an independent walk
    rnd = random.Random(17)
    for _ in range(40):
        cursor, lengths, _ = random_cursor(rnd)
        half_window, num_skips = cursor.half_window, cursor.num_skips
        stream = []
        for _ in range(10):
            centers = np.empty(37, dtype=np.int32)
            ctxs = np.empty(37, dtype=np.int32)
            cursor.fill(centers, ctxs)
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
            base = sum(lengths[:piece])
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


class ScalarWalk:
    """One center at a time, one Rng value per swap: the stream fill must reproduce."""

    def __init__(self, cursor, lengths, rng):
        self.tokens, self.lengths, self.rng = cursor.tokens, lengths, rng
        self.half_window, self.num_skips = cursor.half_window, cursor.num_skips
        self.piece = self.pos = 0
        self.pending = []
        self.center = 0

    def fill(self, centers, ctxs):
        for b in range(len(centers)):
            if not self.pending:
                self._next_center()
            centers[b] = self.center
            ctxs[b] = self.pending.pop(0)

    def _next_center(self):
        start, length = sum(self.lengths[: self.piece]), self.lengths[self.piece]
        lo = max(self.pos - self.half_window, 0)
        hi = min(self.pos + self.half_window, length - 1)
        avail = [q for q in range(lo, hi + 1) if q != self.pos]
        m = len(avail)
        for i in range(min(self.num_skips, m)):
            j = i + self.rng.below(m - i)
            avail[i], avail[j] = avail[j], avail[i]
            self.pending.append(int(self.tokens[start + avail[i]]))
        self.center = int(self.tokens[start + self.pos])
        self.pos += 1
        if self.pos >= length:
            self.pos, self.piece = 0, (self.piece + 1) % len(self.lengths)


def test_pair_generation_matches_scalar_walk():
    rnd = random.Random(19)
    for trial in range(40):
        cursor, lengths, rng = random_cursor(rnd, max_pieces=5)
        ref = ScalarRng.from_state(rng.state)
        walk = ScalarWalk(cursor, lengths, ref)
        for _ in range(15):
            n = rnd.choice((1, 2, 3, 17, 128, 300))
            got = np.empty(n, np.int32), np.empty(n, np.int32)
            expected = np.empty(n, np.int32), np.empty(n, np.int32)
            cursor.fill(*got)
            walk.fill(*expected)
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])
            assert cursor.rng.state == ref.state
            if trial % 2:  # other reads take values from the same stream between fills
                for _ in range(rnd.randrange(3)):
                    assert cursor.rng.next_u64() == ref.next_u64()


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
        rng, oracle_rng = Rng(seed), ScalarRng(seed)
        for i in range(400):
            exclude = i % 2
            a = int(_kernels._draw_negatives_py(cdf, rng, (exclude,), 1)[0, 0])
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
        rng, one, oracle = Rng(seed), Rng(seed), ScalarRng(seed)
        for _ in range(8):
            rows, n_neg = rnd.choice((1, 3, 128)), rnd.choice((1, 2, 5))
            excludes = np.array([rnd.randrange(len(cdf)) for _ in range(rows)], np.int32)
            got = _kernels._draw_negatives_py(cdf, rng, excludes, n_neg)
            assert got.shape == (rows, n_neg)
            for p, exclude in enumerate(excludes.tolist()):
                for j in range(n_neg):
                    assert got[p, j] == _kernels._draw_negatives_py(cdf, one, (exclude,), 1)[0, 0]
                    assert got[p, j] == _draw_by_linear_scan(cdf, oracle, exclude)
            assert rng.state == one.state == oracle.state


def test_negative_draws_peek_at_most_the_open_slots_a_sixteenth_and_one_more(monkeypatch):
    # token 0 holds 2**-12 of the mass, so a slot that excludes token 1 takes about
    # 4,096 draws; every peek stays within 20 open slots + 20 // 16 + 1 = 22 draws
    cdf = np.array([2.0**-12, 1.0])
    requests, peek = [], Rng.peek

    def recording_peek(self, n):
        requests.append(n)
        return peek(self, n)

    monkeypatch.setattr(Rng, "peek", recording_peek)  # Rng has __slots__: patch the class
    rng, oracle = Rng(29), ScalarRng(29)
    got = _kernels._draw_negatives_py(cdf, rng, np.ones(4, np.int32), 5)
    assert 0 < max(requests) <= 22
    assert got.tolist() == [[_draw_by_linear_scan(cdf, oracle, 1) for _ in range(5)]
                            for _ in range(4)]
    assert rng.state == oracle.state


def test_a_run_of_rejections_reads_the_whole_window_before_the_next_peek(monkeypatch):
    # the 20 slots of seed 5 reject 82,864 draws in all; settling at most a sixteenth
    # of the open slots and one more rejections a pass took 38,490 peeks, where a
    # slot's run of rejections now reads on to the end of the window
    cdf = np.array([2.0**-12, 1.0])
    requests, peek = [], Rng.peek

    def recording_peek(self, n):
        requests.append(n)
        return peek(self, n)

    monkeypatch.setattr(Rng, "peek", recording_peek)
    rng, oracle = Rng(5), ScalarRng(5)
    got = _kernels._draw_negatives_py(cdf, rng, np.ones(4, np.int32), 5)
    assert len(requests) < 10_000
    assert max(requests) <= 22
    assert got.tolist() == [[_draw_by_linear_scan(cdf, oracle, 1) for _ in range(5)]
                            for _ in range(4)]
    assert rng.state == oracle.state


def _tiny_training_setup():
    pieces = [np.array([1, 2, 3, 4, 5, 1, 2], np.int32), np.array([3, 1, 4, 5], np.int32)]
    corpus = EncodedCorpus.from_ids(pieces)
    ranked = [(Slice((pc,)), 6 - pc) for pc in range(5)]
    vocab = Vocabulary(ranked, unk_count=2)
    return corpus, vocab


def test_batch_api_reproduces_train_bitwise():
    corpus, vocab = _tiny_training_setup()
    config = TrainingConfig(
        dims=8, window_c=4, num_skips_k=2, negative_samples=3,
        learning_rate=0.2, batch_size=16, steps=20, seed=5, loss_every=20,
    )
    trained, trace = train(corpus, vocab, config)
    rng = Rng(config.seed)
    emb = EmbeddingMatrix.initialize(vocab.size, config.dims, rng)
    cursor = BatchCursor.start(corpus, config, rng)
    noise = NoiseDistribution.from_vocabulary(vocab)
    total = 0.0
    for _ in range(config.steps):
        batch = generate_batch(corpus, config, cursor)
        total += sgd_step(emb, batch, config, noise, cursor.rng)
    assert trace.checkpoints == [(config.steps, total / config.steps)]
    assert np.array_equal(emb.input_vectors, trained.input_vectors)
    assert np.array_equal(emb.output_vectors, trained.output_vectors)


def test_sgd_step_on_fortran_matrices_matches_c_order():
    # non-C-contiguous matrices take _add_rows_at's np.add.at branch
    corpus, vocab = _tiny_training_setup()
    config = TrainingConfig(
        dims=8, window_c=4, num_skips_k=2, negative_samples=3,
        learning_rate=0.2, batch_size=16, steps=30, seed=5,
    )
    emb = EmbeddingMatrix.initialize(vocab.size, config.dims, Rng(config.seed))
    fortran = EmbeddingMatrix(
        np.asfortranarray(emb.input_vectors), np.asfortranarray(emb.output_vectors)
    )
    cursor = BatchCursor.start(corpus, config, Rng(7))
    noise = NoiseDistribution.from_vocabulary(vocab)
    rng_c, rng_f = Rng(11), Rng(11)
    for _ in range(config.steps):
        batch = generate_batch(corpus, config, cursor)
        assert sgd_step(emb, batch, config, noise, rng_c) == sgd_step(
            fortran, batch, config, noise, rng_f
        )
    assert fortran.input_vectors.flags.f_contiguous
    for a, b in ((emb.input_vectors, fortran.input_vectors),
                 (emb.output_vectors, fortran.output_vectors)):
        assert a.tobytes() == np.ascontiguousarray(b).tobytes()


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
