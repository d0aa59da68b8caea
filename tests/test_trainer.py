"""Training core: gradients vs finite differences, sampling, determinism."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from csv_readers import load_loss_trace
from rng_oracle import ScalarRng

from slicevec.rng import Rng
from slicevec.slicer import EncodedCorpus, Slice, Vocabulary
from slicevec.trainer import (
    BatchCursor,
    EmbeddingMatrix,
    LossTrace,
    NoiseDistribution,
    NumericalAbortError,
    TrainingConfig,
    generate_batch,
    neg_sample,
    sgd_step,
    train,
)


def test_config_validation():
    TrainingConfig()  # defaults are valid
    with pytest.raises(ValueError):
        TrainingConfig(dims=0)
    with pytest.raises(ValueError):
        TrainingConfig(window_c=3)  # odd
    with pytest.raises(ValueError):
        TrainingConfig(window_c=0)
    with pytest.raises(ValueError):
        TrainingConfig(num_skips_k=5, window_c=4)
    with pytest.raises(ValueError):
        TrainingConfig(negative_samples=0)
    with pytest.raises(ValueError):
        TrainingConfig(learning_rate=float("nan"))
    with pytest.raises(ValueError):
        TrainingConfig(learning_rate=-0.1)
    with pytest.raises(ValueError):
        TrainingConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainingConfig(loss_every=0)


def test_with_overrides():
    config = TrainingConfig(dims=8)
    other = config.with_overrides(steps=5)
    assert other.steps == 5 and other.dims == 8
    assert config.steps == 1_000_000  # original untouched


def test_initialize_consumes_rng_row_major():
    dims, size, seed = 5, 4, 99
    emb = EmbeddingMatrix.initialize(size, dims, Rng(seed))
    ref = ScalarRng(seed)
    expected = [(ref.next_float() - 0.5) / dims for _ in range(size * dims)]
    assert emb.input_vectors.flatten().tolist() == expected
    assert not emb.output_vectors.any()
    assert emb.input_vectors.max() < 0.5 / dims
    assert emb.input_vectors.min() >= -0.5 / dims


def test_initialize_matches_scalar_stream_across_blocks():
    # more values than one block request, so the fill is chunked
    size, dims, seed = 300, 256, 5
    rng = Rng(seed)
    emb = EmbeddingMatrix.initialize(size, dims, rng)
    ref = ScalarRng(seed)
    expected = [(ref.next_float() - 0.5) / dims for _ in range(size * dims)]
    assert emb.input_vectors.flatten().tolist() == expected
    assert rng.state == ref.state


def test_initial_loss_is_log2_per_classifier():
    # with zero output vectors every dot product is 0, so each pair costs
    # (1 + negative_samples) * ln 2
    for n_neg in (1, 5):
        config = TrainingConfig(
            dims=6, window_c=2, num_skips_k=1, negative_samples=n_neg,
            learning_rate=0.1, batch_size=4, steps=1, seed=7,
        )
        emb = EmbeddingMatrix.initialize(8, 6, Rng(7))
        noise = NoiseDistribution.from_counts(np.arange(1, 9, dtype=np.int64))
        loss = sgd_step(emb, [(1, 2), (3, 4), (5, 6), (7, 1)], config, noise, Rng(3))
        assert loss == pytest.approx((1 + n_neg) * math.log(2), rel=1e-14)


def _capture_negatives(pairs, n_neg, noise, rng_state):
    rng = Rng.from_state(rng_state)
    negs = []
    for _, ctx in pairs:
        negs.append([neg_sample(noise, rng, ctx) for _ in range(n_neg)])
    return negs


def _oracle_mean_loss(inp, out, pairs, negs):
    total = 0.0
    for (c, t), neg_row in zip(pairs, negs):
        dot = math.fsum(float(x) * float(y) for x, y in zip(inp[c], out[t]))
        loss = math.log1p(math.exp(-dot))
        for nid in neg_row:
            dn = math.fsum(float(x) * float(y) for x, y in zip(inp[c], out[nid]))
            loss += math.log1p(math.exp(dn))
        total += loss
    return total / len(pairs)


def _random_instance(rnd):
    vocab = rnd.randrange(5, 12)
    dims = rnd.randrange(3, 7)
    n_pairs = rnd.randrange(1, 6)
    n_neg = rnd.randrange(1, 4)
    gen = np.random.default_rng(rnd.randrange(1 << 30))
    inp = gen.uniform(-0.5, 0.5, (vocab, dims))
    out = gen.uniform(-0.5, 0.5, (vocab, dims))
    pairs = [
        (rnd.randrange(vocab), rnd.randrange(vocab)) for _ in range(n_pairs)
    ]
    counts = np.array([rnd.randrange(0, 9) for _ in range(vocab)], dtype=np.int64)
    config = TrainingConfig(
        dims=dims, window_c=2, num_skips_k=1, negative_samples=n_neg,
        learning_rate=1.0, batch_size=n_pairs, steps=1, seed=1,
    )
    return inp, out, pairs, NoiseDistribution.from_counts(counts), config


def test_gradients_match_central_finite_differences():
    rnd = random.Random(37)
    eps = 1e-4
    checked = 0
    for _ in range(12):
        inp, out, pairs, noise, config = _random_instance(rnd)
        rng = Rng(rnd.randrange(1 << 30))
        negs = _capture_negatives(pairs, config.negative_samples, noise, rng.state)
        emb = EmbeddingMatrix(inp.copy(), out.copy())
        loss = sgd_step(emb, pairs, config, noise, rng)
        assert loss == pytest.approx(_oracle_mean_loss(inp, out, pairs, negs), rel=1e-12)
        # learning_rate is 1, so the update equals the mean-loss gradient
        grad_inp = inp - emb.input_vectors
        grad_out = out - emb.output_vectors
        touched_inp = {c for c, _ in pairs}
        touched_out = {t for _, t in pairs} | {n for row in negs for n in row}
        for matrix, grad, touched in (
            (inp, grad_inp, touched_inp),
            (out, grad_out, touched_out),
        ):
            which = 0 if matrix is inp else 1
            for row in touched:
                for d in range(config.dims):
                    g = grad[row, d]
                    if abs(g) <= 1e-3:
                        continue
                    plus = [inp.copy(), out.copy()]
                    minus = [inp.copy(), out.copy()]
                    plus[which][row, d] += eps
                    minus[which][row, d] -= eps
                    fd = (
                        _oracle_mean_loss(plus[0], plus[1], pairs, negs)
                        - _oracle_mean_loss(minus[0], minus[1], pairs, negs)
                    ) / (2 * eps)
                    assert abs(fd - g) / max(abs(fd), abs(g)) < 1e-4
                    checked += 1
    assert checked >= 100


def test_untouched_rows_stay_bitwise_identical():
    inp = np.full((6, 4), 0.25)
    out = np.full((6, 4), -0.125)
    emb = EmbeddingMatrix(inp.copy(), out.copy())
    config = TrainingConfig(
        dims=4, window_c=2, num_skips_k=1, negative_samples=1,
        learning_rate=0.5, batch_size=1, steps=1, seed=1,
    )
    # token 5 has probability ~1, so every negative lands on it
    counts = np.array([0, 0, 0, 0, 0, 10**9], dtype=np.int64)
    noise = NoiseDistribution.from_counts(counts)
    sgd_step(emb, [(1, 2)], config, noise, Rng(9))
    assert np.array_equal(emb.input_vectors[[0, 2, 3, 4, 5]], inp[[0, 2, 3, 4, 5]])
    assert np.array_equal(emb.output_vectors[[0, 1, 3, 4]], out[[0, 1, 3, 4]])
    assert not np.array_equal(emb.input_vectors[1], inp[1])
    assert not np.array_equal(emb.output_vectors[2], out[2])
    assert not np.array_equal(emb.output_vectors[5], out[5])


def test_zero_learning_rate_changes_nothing():
    inp, out, pairs, noise, config = _random_instance(random.Random(41))
    config = config.with_overrides(learning_rate=0.0)
    emb = EmbeddingMatrix(inp.copy(), out.copy())
    loss = sgd_step(emb, pairs, config, noise, Rng(1))
    assert np.array_equal(emb.input_vectors, inp)
    assert np.array_equal(emb.output_vectors, out)
    assert math.isfinite(loss)


def test_sgd_step_rejects_empty_batch():
    emb = EmbeddingMatrix.initialize(4, 3, Rng(1))
    noise = NoiseDistribution.from_counts(np.ones(4, dtype=np.int64))
    with pytest.raises(ValueError):
        sgd_step(emb, [], TrainingConfig(dims=3), noise, Rng(1))


def test_sgd_step_abort_leaves_matrices_unchanged():
    inp = np.full((4, 3), 0.1)
    inp[3] = 1e200  # pair 1's center overflows every dot product
    out = np.full((4, 3), 1e200)
    emb = EmbeddingMatrix(inp.copy(), out.copy())
    config = TrainingConfig(dims=3, negative_samples=2, learning_rate=0.1)
    noise = NoiseDistribution.from_counts(np.ones(4, dtype=np.int64))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalAbortError) as excinfo:
            sgd_step(emb, [(1, 2), (3, 1), (2, 0)], config, noise, Rng(4))
    assert (excinfo.value.step, excinfo.value.pair) == (-1, 1)
    assert np.array_equal(emb.input_vectors, inp)
    assert np.array_equal(emb.output_vectors, out)


def test_noise_distribution_power_and_floor():
    counts = np.array([0, 10, 5, 1], dtype=np.int64)
    noise = NoiseDistribution.from_counts(counts)
    weights = [max(c, 1) ** 0.75 for c in counts.tolist()]
    total = math.fsum(weights)
    assert np.allclose(noise.probs, [w / total for w in weights], rtol=1e-15)
    assert noise.cdf[-1] == 1.0
    assert noise.probs.sum() == pytest.approx(1.0, rel=1e-15)


def test_neg_sample_never_returns_exclude():
    noise = NoiseDistribution.from_counts(np.array([100, 1], dtype=np.int64))
    rng = Rng(5)
    for _ in range(2000):
        assert neg_sample(noise, rng, 0) == 1  # only other token available


def test_neg_sample_matches_conditional_distribution():
    counts = np.array([50, 30, 10, 8, 2], dtype=np.int64)
    noise = NoiseDistribution.from_counts(counts)
    exclude = 1
    draws = 100_000
    rng = Rng(12345)
    hist = np.zeros(5, dtype=np.int64)
    for _ in range(draws):
        hist[neg_sample(noise, rng, exclude)] += 1
    assert hist[exclude] == 0
    conditional = noise.probs.copy()
    conditional[exclude] = 0.0
    conditional /= conditional.sum()
    for i, p in enumerate(conditional):
        if p > 0.02:
            assert abs(hist[i] / draws - p) < 0.1 * p


def _small_corpus():
    pieces = [
        np.array([1, 2, 3, 4, 2, 1], np.int32),
        np.array([3, 4, 1], np.int32),
    ]
    corpus = EncodedCorpus.from_ids(pieces)
    ranked = [(Slice((pc,)), 5 - pc) for pc in range(4)]
    vocab = Vocabulary(ranked, unk_count=1)
    return corpus, vocab


def test_generate_batch_checks_cursor_ownership():
    corpus, _ = _small_corpus()
    config = TrainingConfig(dims=4, window_c=2, num_skips_k=1, batch_size=4, steps=1)
    cursor = BatchCursor.start(corpus, config, Rng(1))
    other = EncodedCorpus.from_ids([[1, 2, 3, 4]])
    with pytest.raises(ValueError, match="different corpus"):
        generate_batch(other, config, cursor)


def test_generate_batch_pairs_are_in_vocabulary_range():
    corpus, vocab = _small_corpus()
    config = TrainingConfig(dims=4, window_c=4, num_skips_k=2, batch_size=16, steps=1)
    cursor = BatchCursor.start(corpus, config, Rng(2))
    for _ in range(20):
        for center, ctx in generate_batch(corpus, config, cursor):
            assert 0 <= center < vocab.size
            assert 0 <= ctx < vocab.size


def test_cursor_requires_a_trainable_piece():
    corpus = EncodedCorpus.from_ids([[7], []])
    config = TrainingConfig(dims=4, steps=1)
    with pytest.raises(ValueError, match="at least 2 tokens"):
        BatchCursor.start(corpus, config, Rng(1))


def test_loss_trace_round_trip(tmp_path):
    trace = LossTrace([(100, 4.158883083359672), (200, 3.25), (300, 1e-7)])
    path = tmp_path / "loss.csv"
    trace.save_csv(str(path))
    text = path.read_text()
    assert text.splitlines()[0] == "step,avg_loss"
    loaded = load_loss_trace(str(path))
    assert loaded.checkpoints == trace.checkpoints  # repr round-trips floats


def test_loss_trace_requires_increasing_steps():
    with pytest.raises(ValueError):
        LossTrace([(200, 1.0), (100, 2.0)])
    with pytest.raises(ValueError):
        LossTrace([(100, 1.0), (100, 2.0)])


def test_loss_trace_rejects_foreign_csv(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        load_loss_trace(str(path))


def test_train_is_deterministic():
    corpus, vocab = _small_corpus()
    config = TrainingConfig(
        dims=8, window_c=2, num_skips_k=1, negative_samples=3,
        learning_rate=0.1, batch_size=8, steps=300, seed=21, loss_every=100,
    )
    emb1, trace1 = train(corpus, vocab, config)
    emb2, trace2 = train(corpus, vocab, config)
    assert np.array_equal(emb1.input_vectors, emb2.input_vectors)
    assert np.array_equal(emb1.output_vectors, emb2.output_vectors)
    assert trace1.checkpoints == trace2.checkpoints
    emb3, _ = train(corpus, vocab, config.with_overrides(seed=22))
    assert not np.array_equal(emb1.input_vectors, emb3.input_vectors)


def test_train_zero_steps_returns_initialization():
    corpus, vocab = _small_corpus()
    config = TrainingConfig(dims=8, steps=0, seed=21)
    emb, trace = train(corpus, vocab, config)
    expected = EmbeddingMatrix.initialize(vocab.size, 8, Rng(21))
    assert np.array_equal(emb.input_vectors, expected.input_vectors)
    assert trace.checkpoints == []


def test_train_drops_partial_loss_window():
    corpus, vocab = _small_corpus()
    config = TrainingConfig(
        dims=4, window_c=2, num_skips_k=1, batch_size=8, steps=250,
        seed=2, loss_every=100,
    )
    _, trace = train(corpus, vocab, config)
    assert [step for step, _ in trace.checkpoints] == [100, 200]
    assert all(math.isfinite(loss) for _, loss in trace.checkpoints)


def test_train_loss_descends_on_tiny_corpus():
    corpus, vocab = _small_corpus()
    config = TrainingConfig(
        dims=16, window_c=2, num_skips_k=1, negative_samples=5,
        learning_rate=0.1, batch_size=16, steps=2000, seed=4, loss_every=500,
    )
    _, trace = train(corpus, vocab, config)
    losses = [loss for _, loss in trace.checkpoints]
    assert losses[-1] < losses[0]


def test_train_validates_inputs():
    corpus, vocab = _small_corpus()
    bad = EncodedCorpus.from_ids([[1, 2, 99]])
    with pytest.raises(ValueError, match="outside the vocabulary"):
        train(bad, vocab, TrainingConfig(dims=4, steps=1))
    lone = Vocabulary([], unk_count=3)
    with pytest.raises(ValueError, match="at least 2"):
        train(EncodedCorpus.from_ids([[0, 0]]), lone, TrainingConfig(dims=4, steps=1))


def test_train_refuses_a_token_that_holds_nearly_all_the_noise_mass():
    # UNK at count 0 (floored to 1) and 0.4.7 at count c: 0.4.7's noise share is
    # c**0.75 / (c**0.75 + 1), and 10,307 is the largest count at or below 1 - 2**-10
    corpus = EncodedCorpus.from_ids([[1, 0, 1], [0, 1]])
    config = TrainingConfig(dims=4, window_c=2, num_skips_k=1, batch_size=4, steps=1)
    kept = Vocabulary([(Slice((0, 4, 7)), 10_307)], unk_count=0)
    train(corpus, kept, config)
    refused = Vocabulary([(Slice((0, 4, 7)), 10_308)], unk_count=0)
    with pytest.raises(ValueError, match=r"^0\.4\.7 holds 1 - 0\.000977 of the noise mass: "):
        train(corpus, refused, config)


def test_train_aborts_on_numerical_blowup():
    corpus, vocab = _small_corpus()
    config = TrainingConfig(
        dims=4, window_c=2, num_skips_k=1, negative_samples=2,
        learning_rate=1e200, batch_size=4, steps=50, seed=3, loss_every=10,
    )
    # a non-finite pair loss names its batch and pair; at loss_every=2 the
    # matrices turn non-finite first, found at the end of the loss window
    for loss_every, where in ((10, (2, 0)), (2, (1, -1))):
        with pytest.raises(NumericalAbortError) as excinfo:
            train(corpus, vocab, config.with_overrides(loss_every=loss_every))
        assert (excinfo.value.step, excinfo.value.pair) == where


def test_train_aborts_on_blowup_after_the_last_checkpoint():
    corpus, vocab = _small_corpus()
    config = TrainingConfig(
        dims=4, window_c=2, num_skips_k=1, negative_samples=2,
        learning_rate=1e200, batch_size=4, steps=2, seed=3, loss_every=100,
    )
    # the matrices turn non-finite in batch 1 (as above), and no checkpoint follows
    with pytest.raises(NumericalAbortError) as excinfo:
        train(corpus, vocab, config)
    assert (excinfo.value.step, excinfo.value.pair) == (1, -1)


def test_batch_cursor_survives_center_splits():
    # batch size 3 with num_skips 2 forces a center's pairs across batches
    corpus, _ = _small_corpus()
    config = TrainingConfig(dims=4, window_c=4, num_skips_k=2, batch_size=3, steps=1)
    cursor = BatchCursor.start(corpus, config, Rng(8))
    split = []
    for _ in range(8):
        split.extend(generate_batch(corpus, config, cursor))
    config_whole = config.with_overrides(batch_size=24)
    cursor2 = BatchCursor.start(corpus, config_whole, Rng(8))
    whole = generate_batch(corpus, config_whole, cursor2)
    assert split == whole
