"""Mid-scale integration: a quickly trained space behaves sensibly."""

from __future__ import annotations

import math
import warnings

from conftest import corpus_slices, slice_of

from slicevec.embedding import nearest
from slicevec.generator import GeneratorConfig, rewrite_piece
from slicevec.synth import generate_piece, piece_rng
from slicevec.slicer import make_slice


def test_three_key_corpus_is_diatonic(three_key_slices):
    scales = {
        0: {0, 2, 4, 5, 7, 9, 11},
        7: {7, 9, 11, 0, 2, 4, 6},
        5: {5, 7, 9, 10, 0, 2, 4},
    }
    assert len(three_key_slices) == 6
    union = set()
    for piece in three_key_slices:
        pcs = {pc for s in piece for pc in s.pitch_classes}
        assert any(pcs <= allowed for allowed in scales.values())
        union |= pcs
    assert union  # the corpus is not all rests


def test_tiny_training_run(tiny_trained):
    space, vocab, corpus, trace = tiny_trained
    steps = [step for step, _ in trace.checkpoints]
    assert steps == [1000, 2000, 3000, 4000]
    losses = [loss for _, loss in trace.checkpoints]
    assert all(math.isfinite(loss) for loss in losses)
    assert losses[-1] < losses[0]
    assert space.size == vocab.size <= 80
    assert space.dims == 16
    assert space.unk_id == 0
    assert len(corpus.pieces) == 6


def test_tiny_space_neighbors_are_ranked(tiny_space):
    tonic = slice_of("0.4.7")
    assert tonic.form in tiny_space
    neighbors = nearest(tiny_space, tiny_space.id_of(tonic.form), 5)
    assert len(neighbors) == 5
    distances = [dist for _, dist in neighbors]
    assert distances == sorted(distances)
    assert all(0.0 <= d <= 2.0 for d in distances)
    forms = {tiny_space.form_of(token) for token, _ in neighbors}
    assert "UNK" not in forms and tonic.form not in forms


def test_tiny_space_rewrites_a_fresh_piece(tiny_space):
    beats = generate_piece(0, "major", 6, piece_rng(777, 0, "major", 0))
    slices = [make_slice(b) for b in beats]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out, diags = rewrite_piece(slices, tiny_space, GeneratorConfig(top_n=5))
    assert len(out) == len(slices)
    for original, result, which in zip(slices, out, diags.which):
        if diags.subs[which].distance is None:
            assert result == original  # OOV or empty pool passes through
        else:
            assert result.form in tiny_space
            assert result.form != "R"


def test_corpus_slices_helper_is_deterministic():
    a = corpus_slices(("C",), "major", 1, 3, seed=4)
    b = corpus_slices(("C",), "major", 1, 3, seed=4)
    c = corpus_slices(("C",), "major", 1, 3, seed=6)
    assert a == b
    assert a != c
