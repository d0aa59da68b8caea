"""Synthetic corpus generator: determinism, diatonicity, round-trips."""

from __future__ import annotations

import random

import numpy as np
import pytest

from slicevec.midi import MAX_BEATS, parse_midi
from slicevec.slicer import make_slice, slices_from_piece
from slicevec.synth import (
    _TRANSITIONS,
    BASE_PITCH,
    BEATS_PER_BAR,
    TICKS_PER_BEAT,
    _progression,
    generate_piece,
    key_filename,
    parse_key_filename,
    piece_notes,
    piece_rng,
    synth_corpus,
)

_SCALE_SETS = {
    "major": (0, 2, 4, 5, 7, 9, 11),
    "minor": (0, 2, 3, 5, 7, 8, 10),
}


def _scale_set(root_pc, mode):
    return {(root_pc + iv) % 12 for iv in _SCALE_SETS[mode]}


def _tonic_triad(root_pc, mode):
    third = 4 if mode == "major" else 3
    return {root_pc, (root_pc + third) % 12, (root_pc + 7) % 12}


def _dominant_triad(root_pc, mode):
    # triad stacked on scale degree 5 in the natural scale
    scale = _SCALE_SETS[mode]
    return {(root_pc + scale[(4 + step) % 7]) % 12 for step in (0, 2, 4)}


def test_key_filename_round_trip():
    assert key_filename("F#", "minor", 2) == "Fs_minor_02.mid"
    assert key_filename("C", "major", 0) == "C_major_00.mid"
    assert parse_key_filename("Fs_minor_02.mid") == (6, "minor")
    assert parse_key_filename("/some/dir/Bb_major_11.mid") == (10, "major")
    for name in ("x.mid", "C_dorian_00.mid", "H_major_00.mid", "C_major.mid"):
        with pytest.raises(ValueError):
            parse_key_filename(name)


def test_generate_piece_shape_and_diatonicity():
    rnd = random.Random(17)
    for _ in range(20):
        root = rnd.randrange(12)
        mode = rnd.choice(["major", "minor"])
        n_bars = rnd.randrange(2, 9)
        beats = generate_piece(root, mode, n_bars, piece_rng(3, root, mode, 0))
        assert len(beats) == n_bars * BEATS_PER_BAR
        allowed = _scale_set(root, mode)
        for beat in beats:
            assert set(beat) <= allowed


def test_generate_piece_harmonic_skeleton():
    for root, mode in [(0, "major"), (9, "minor"), (6, "major")]:
        beats = generate_piece(root, mode, 6, piece_rng(11, root, mode, 1))
        tonic = _tonic_triad(root, mode)
        assert set(beats[0]) == tonic  # opens on I
        # final bar holds the tonic triad on every beat
        for beat in beats[-BEATS_PER_BAR:]:
            assert set(beat) == tonic
        # penultimate bar opens on the dominant
        assert set(beats[-2 * BEATS_PER_BAR]) == _dominant_triad(root, mode)
        # downbeats always carry the full triad; other beats keep its root
        for bar in range(6):
            downbeat = beats[bar * BEATS_PER_BAR]
            assert len(downbeat) == 3
            for beat in beats[bar * BEATS_PER_BAR : (bar + 1) * BEATS_PER_BAR]:
                if beat:
                    assert downbeat[0] in beat


def test_generate_piece_rejects_empty():
    with pytest.raises(ValueError):
        generate_piece(0, "major", 0, piece_rng(1, 0, "major", 0))


def test_piece_notes_merges_holds():
    beats = [(0, 4), (0, 4), (7,), (), (7,)]
    notes, grid = piece_notes(beats)
    tpb = TICKS_PER_BEAT
    assert notes.dtype == np.int64
    assert notes.tolist() == [
        [60, 0, 2 * tpb, 0],
        [64, 0, 2 * tpb, 0],
        [67, 2 * tpb, 3 * tpb, 0],
        [67, 4 * tpb, 5 * tpb, 0],
    ]
    assert grid.ticks_per_beat == tpb and grid.piece_length_beats == 5


def progression_by_choice(n_bars, rng):
    """_progression as Generator.choice draws it: the reference for the cdf search."""
    degrees = [1]
    for _ in range(n_bars - 1):
        nxt, probs = zip(*_TRANSITIONS[degrees[-1]])
        degrees.append(int(rng.choice(nxt, p=probs)))
    if n_bars >= 2:
        degrees[-2] = 5
    degrees[-1] = 1
    return degrees


def test_progression_draws_what_generator_choice_draws():
    for seed in range(1000):
        root, mode, index = seed % 12, ("major", "minor")[seed % 2], seed % 5
        for n_bars in (1, 2, 3, 9, 40):
            ours, theirs = piece_rng(seed, root, mode, index), piece_rng(seed, root, mode, index)
            assert _progression(n_bars, ours) == progression_by_choice(n_bars, theirs)
            assert ours.random() == theirs.random()  # the same stream state after


def piece_notes_by_walk(beats):
    """piece_notes' rows, one run of equal beat tuples at a time: the reference."""
    rows = []
    b = 0
    while b < len(beats):
        run = b + 1
        while run < len(beats) and beats[run] == beats[b]:
            run += 1
        for pc in sorted(set(beats[b])):
            rows.append((BASE_PITCH + pc, b * TICKS_PER_BEAT, run * TICKS_PER_BEAT, 0))
        b = run
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def test_piece_notes_breaks_runs_where_tuples_differ():
    notes, grid = piece_notes([(0, 4, 7), (4, 0, 7), (4, 0, 7)])
    tpb = TICKS_PER_BEAT
    assert notes[:, 1:3].tolist() == [[0, tpb]] * 3 + [[tpb, 3 * tpb]] * 3
    assert notes[:, 0].tolist() == [60, 64, 67] * 2
    notes, grid = piece_notes([])
    assert notes.shape == (0, 4) and notes.dtype == np.int64
    assert grid.piece_length_beats == 0


def test_piece_notes_matches_the_run_walk():
    rnd = random.Random(16)
    # neighbours equal as sets but not as tuples, a repeated pitch class, rests
    pool = [(0, 4, 7), (4, 0, 7), (7, 4, 0), (0, 4), (4, 0), (0, 0, 4), (0,), (), (11, 2)]
    for _ in range(600):
        beats = [
            rnd.choice(pool) if rnd.random() < 0.8
            else tuple(rnd.sample(range(12), rnd.randrange(0, 6)))
            for _ in range(rnd.randrange(0, 40))
        ]
        notes, grid = piece_notes(beats)
        assert notes.dtype == np.int64
        assert np.array_equal(notes, piece_notes_by_walk(beats))
        assert grid.piece_length_beats == len(beats)


def test_piece_round_trips_through_midi():
    from slicevec.midi import write_smf

    for root, mode in [(0, "major"), (7, "major"), (9, "minor")]:
        beats = generate_piece(root, mode, 8, piece_rng(5, root, mode, 2))
        notes, grid = piece_notes(beats)
        piece = parse_midi(write_smf(notes, grid.ticks_per_beat))
        assert piece.grid.piece_length_beats == len(beats)
        assert slices_from_piece(piece) == [make_slice(b) for b in beats]


def test_piece_rng_is_keyed():
    a = piece_rng(1, 0, "major", 0).random(4).tolist()
    b = piece_rng(1, 0, "major", 0).random(4).tolist()
    c = piece_rng(1, 0, "major", 1).random(4).tolist()
    d = piece_rng(2, 0, "major", 0).random(4).tolist()
    assert a == b
    assert a != c and a != d


def test_synth_corpus_writes_deterministic_files(tmp_path):
    keys = ["C", "G"]
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    paths1 = synth_corpus(str(out1), keys, ["major", "minor"], 2, 4, seed=9)
    paths2 = synth_corpus(str(out2), keys, ["major", "minor"], 2, 4, seed=9)
    assert len(paths1) == 2 * 2 * 2
    names1 = [p.split("/")[-1] for p in paths1]
    assert names1 == [
        "C_major_00.mid", "C_major_01.mid", "C_minor_00.mid", "C_minor_01.mid",
        "G_major_00.mid", "G_major_01.mid", "G_minor_00.mid", "G_minor_01.mid",
    ]
    for p1, p2 in zip(paths1, paths2):
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()
    different = synth_corpus(str(tmp_path / "three"), keys, ["major"], 1, 4, seed=10)
    with open(paths1[0], "rb") as f1, open(different[0], "rb") as f2:
        assert f1.read() != f2.read()


def test_synth_corpus_files_parse_to_their_key(tmp_path):
    paths = synth_corpus(str(tmp_path), ["F#"], ["minor"], 1, 4, seed=2)
    root, mode = parse_key_filename(paths[0])
    assert (root, mode) == (6, "minor")
    with open(paths[0], "rb") as fh:
        piece = parse_midi(fh.read())
    assert piece.grid.piece_length_beats == 16
    for s in slices_from_piece(piece):
        assert set(s.pitch_classes) <= _scale_set(6, "minor")


def test_synth_corpus_validation(tmp_path):
    with pytest.raises(ValueError):
        synth_corpus(str(tmp_path), ["X"], ["major"], 1, 4, seed=1)
    with pytest.raises(ValueError):
        synth_corpus(str(tmp_path), ["C"], ["ionian"], 1, 4, seed=1)
    with pytest.raises(ValueError):
        synth_corpus(str(tmp_path), ["C"], ["major"], 0, 4, seed=1)
    with pytest.raises(ValueError, match="key list must not be empty"):
        synth_corpus(str(tmp_path), [], ["major"], 1, 4, seed=1)
    with pytest.raises(ValueError, match="mode list must not be empty"):
        synth_corpus(str(tmp_path), ["C"], [], 1, 4, seed=1)


def test_synth_corpus_refuses_pieces_parse_midi_refuses(tmp_path):
    out = tmp_path / "long"
    n_bars = MAX_BEATS // BEATS_PER_BAR + 1
    with pytest.raises(ValueError, match=f"beyond the {MAX_BEATS}-beat limit"):
        synth_corpus(str(out), ["C"], ["major"], 1, n_bars, seed=1)
    assert not out.exists()
