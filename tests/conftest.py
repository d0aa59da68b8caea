"""Shared fixtures: a small synthetic corpus and a quickly trained space, and
the acceptance gate's corpus and trained cap-500 space.

The acceptance space takes most of a tier-1 run to train, so it is built
once per session for test_acceptance and the tests that check batched code
against per-query references on it; the other fixtures are sized for
unit-test turnaround (a couple of seconds total).
"""

from __future__ import annotations

import pytest

from slicevec.analysis import CIRCLE_OF_FIFTHS, PC_OF_NAME
from slicevec.embedding import EmbeddingSpace
from slicevec.slicer import Slice, build_vocabulary, encode_corpus, make_slice
from slicevec.synth import generate_piece, piece_rng
from slicevec.trainer import TrainingConfig, train


def corpus_slices(keys, mode, pieces_per_key, n_bars, seed):
    """In-memory slice lists for a synthetic corpus (no files involved)."""
    pieces = []
    for key in keys:
        root = PC_OF_NAME[key]
        for index in range(pieces_per_key):
            rng = piece_rng(seed, root, mode, index)
            beats = generate_piece(root, mode, n_bars, rng)
            pieces.append([make_slice(beat) for beat in beats])
    return pieces


@pytest.fixture(scope="session")
def three_key_slices():
    return corpus_slices(("C", "G", "F"), "major", 2, 12, seed=5)


@pytest.fixture(scope="session")
def tiny_trained():
    """A small trained model: (space, vocab, corpus, trace)."""
    pieces = corpus_slices(("C", "G", "F"), "major", 2, 12, seed=5)
    vocab = build_vocabulary((s for p in pieces for s in p), max_size=80)
    corpus = encode_corpus(pieces, vocab)
    config = TrainingConfig(
        dims=16, window_c=4, num_skips_k=2, negative_samples=5,
        learning_rate=0.1, batch_size=64, steps=4000, seed=3, loss_every=1000,
    )
    emb, trace = train(corpus, vocab, config)
    space = EmbeddingSpace.from_training(vocab, emb)
    return space, vocab, corpus, trace


@pytest.fixture(scope="session")
def tiny_space(tiny_trained):
    return tiny_trained[0]


def slice_of(form: str) -> Slice:
    return Slice.from_form(form)


ACC_SEED = 11
ACC_BARS = 26  # 12 keys x 4 pieces x 26 bars x 4 beats = 4992 slices


@pytest.fixture(scope="session")
def acc_pieces():
    """12 major keys x 4 pieces, ~5k slices total."""
    pieces = []
    for name in CIRCLE_OF_FIFTHS:
        root = PC_OF_NAME[name]
        for index in range(4):
            rng = piece_rng(ACC_SEED, root, "major", index)
            beats = generate_piece(root, "major", ACC_BARS, rng)
            pieces.append(([make_slice(b) for b in beats], root, "major"))
    assert sum(len(s) for s, _, _ in pieces) == 4992
    return pieces


@pytest.fixture(scope="session")
def acc_main(acc_pieces):
    """Fully trained cap-500 space backing the geometry criteria."""
    flat = [s for slices, _, _ in acc_pieces for s in slices]
    config = TrainingConfig(
        dims=64,
        window_c=4,
        num_skips_k=2,
        negative_samples=5,
        learning_rate=0.1,
        batch_size=128,
        steps=50_000,
        seed=ACC_SEED,
        loss_every=2000,
    )
    vocab = build_vocabulary(iter(flat), 500)
    corpus = encode_corpus([slices for slices, _, _ in acc_pieces], vocab)
    emb, trace = train(corpus, vocab, config)
    return {
        "vocab": vocab,
        "corpus": corpus,
        "emb": emb,
        "trace": trace,
        "space": EmbeddingSpace.from_training(vocab, emb),
    }
