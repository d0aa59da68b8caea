"""Substitution rule oracle, diagnostics, and MIDI re-emission."""

from __future__ import annotations

import math
import random
import time
import warnings

import numpy as np
import pytest
from midi_oracle import note_array, sounding_pitches

from slicevec.embedding import EmbeddingSpace
from slicevec.generator import (
    RENDER_BASE_PITCH,
    GeneratorConfig,
    Substitution,
    emit_midi,
    pitch_class_weights,
    rewrite_piece,
    save_diagnostics,
    substitute_slice,
)
from slicevec.midi import BeatGrid, MidiPiece, NoteEvent, parse_midi, write_smf
from slicevec.slicer import Slice, slices_from_piece


def _oracle_distance(a, b):
    if np.array_equal(a, b):
        return 0.0
    if np.array_equal(a, -b):
        return 2.0
    dot = math.fsum(float(x) * float(y) for x, y in zip(a, b))
    na = math.sqrt(math.fsum(float(x) * float(x) for x in a))
    nb = math.sqrt(math.fsum(float(y) * float(y) for y in b))
    return 1.0 - min(1.0, max(-1.0, dot / (na * nb)))


def _oracle_substitute(space, s, top_n, exclude_identity):
    """Independent restatement of the whole substitution rule."""
    if s.form not in space:
        return s, None
    sid = space.id_of(s.form)
    ranked = []
    for cand in range(space.size):
        if exclude_identity and cand == sid:
            continue
        if cand == space.unk_id:
            continue
        form = space.form_of(cand)
        dist = _oracle_distance(space.vector(sid), space.vector(cand))
        ranked.append((dist, form, cand))
    ranked.sort()
    pool = [(form, dist) for dist, form, _ in ranked if form != "R"]
    if not pool:
        return s, None
    top = [(Slice.from_form(form), dist) for form, dist in pool[:top_n]]
    counts = [0] * 12
    for cand, _ in top:
        for pc in cand.pitch_classes:
            counts[pc] += 1
    total = sum(counts)
    scored = []
    for cand, dist in top:
        score = sum(counts[pc] / total for pc in cand.pitch_classes) / len(
            cand.pitch_classes
        )
        scored.append((cand, dist, score, len(cand.pitch_classes) == len(s.pitch_classes)))
    same = [entry for entry in scored if entry[3]]
    contenders = same if same else scored
    best = min(contenders, key=lambda e: (-e[2], e[1], e[0].form))
    return best[0], best[1]


def _random_space(rnd, size, dims, with_unk, with_rest):
    forms = set()
    budget = size - int(with_unk) - int(with_rest)
    while len(forms) < budget:
        pcs = sorted(rnd.sample(range(12), rnd.randrange(1, 5)))
        forms.add(".".join(str(pc) for pc in pcs))
    ordered = sorted(forms)
    rnd.shuffle(ordered)
    all_forms = (["UNK"] if with_unk else []) + (["R"] if with_rest else []) + ordered
    gen = np.random.default_rng(rnd.randrange(1 << 30))
    vectors = gen.integers(-3, 4, size=(size, dims)).astype(np.float64)
    for i in range(size):
        while not vectors[i].any():
            vectors[i] = gen.integers(-3, 4, size=dims).astype(np.float64)
    return EmbeddingSpace(all_forms, vectors)


def test_substitute_matches_oracle_on_random_instances():
    # integer vectors keep distance arithmetic bit-equal between oracle and
    # implementation, so results must match exactly
    rnd = random.Random(606)
    same_count_hits = 0
    for _ in range(300):
        size = rnd.randrange(3, 51)
        space = _random_space(
            rnd, size, rnd.choice([2, 3, 4, 6]),
            with_unk=rnd.random() < 0.8, with_rest=rnd.random() < 0.3,
        )
        top_n = rnd.choice([1, 5, 10, 20])
        exclude_identity = rnd.random() < 0.8
        if rnd.random() < 0.8:
            content = [f for f in space.forms if f not in ("UNK", "R")]
            query = Slice.from_form(rnd.choice(content))
        else:
            query = Slice((0, 1, 2, 3, 4, 5))  # OOV in these small spaces
        config = GeneratorConfig(top_n=top_n, exclude_identity=exclude_identity)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = substitute_slice(query, space, config)
        want_slice, want_dist = _oracle_substitute(
            space, query, top_n, exclude_identity
        )
        assert got.result == want_slice
        assert got.distance == want_dist
        assert got.original == query
        # preference rule: same pitch-class count wins whenever available
        if got.candidates:
            if any(c.same_count for c in got.candidates):
                assert len(got.result.pitch_classes) == len(query.pitch_classes)
                same_count_hits += 1
    assert same_count_hits >= 50


def test_oov_slice_passes_through():
    space = EmbeddingSpace(["UNK", "0.4.7"], np.eye(2))
    s = Slice((1, 5))
    sub = substitute_slice(s, space, GeneratorConfig())
    assert sub == Substitution(s, s, None, ())


def test_empty_pool_warns_and_passes_through():
    space = EmbeddingSpace(["UNK", "0", "R"], np.eye(3))
    s = Slice((0,))
    with pytest.warns(UserWarning, match="passing through"):
        sub = substitute_slice(s, space, GeneratorConfig(top_n=5))
    assert sub.result == s and sub.distance is None


def test_short_pool_warns_and_uses_all():
    space = EmbeddingSpace(
        ["UNK", "0", "4", "7"], np.array([[9.0, 9], [1, 0], [1, 1], [0, 1]])
    )
    with pytest.warns(UserWarning, match="using all of them"):
        sub = substitute_slice(Slice((0,)), space, GeneratorConfig(top_n=20))
    assert len(sub.candidates) == 2  # "4" and "7"


def test_identity_allowed_when_not_excluded():
    space = EmbeddingSpace(
        ["0", "4"], np.array([[1.0, 0.0], [0.9, 0.1]])
    )
    config = GeneratorConfig(top_n=2, exclude_identity=False)
    sub = substitute_slice(Slice((0,)), space, config)
    assert any(c.slice.form == "0" and c.distance == 0.0 for c in sub.candidates)


def test_hand_worked_scoring_case():
    # query "0" -> neighbors by distance: "2", "9" (equidistant), "5.9"
    vectors = np.array(
        [
            [2.0, 0.0, 0.0],  # query "0"
            [1.0, 1.0, 0.0],  # "2", cos 1/sqrt(2)
            [1.0, 0.0, 1.0],  # "9", same distance as "2"
            [0.0, 1.0, 1.0],  # "5.9", orthogonal
        ]
    )
    space = EmbeddingSpace(["0", "2", "9", "5.9"], vectors)
    sub = substitute_slice(Slice((0,)), space, GeneratorConfig(top_n=3))
    # weights: pc2 -> 1/4, pc9 -> 2/4, pc5 -> 1/4
    by_form = {c.slice.form: c for c in sub.candidates}
    assert by_form["2"].score == pytest.approx(0.25)
    assert by_form["9"].score == pytest.approx(0.5)
    assert by_form["5.9"].score == pytest.approx(0.375)
    assert by_form["2"].same_count and by_form["9"].same_count
    assert not by_form["5.9"].same_count
    assert sub.result.form == "9"  # best same-count score
    assert sub.distance == by_form["9"].distance


def test_tie_breaks_prefer_distance_then_form():
    # two same-count candidates with identical scores and distances: the
    # lexicographically smaller form wins
    vectors = np.array(
        [
            [2.0, 0.0, 0.0],
            [1.0, 1.0, 0.0],  # "4"
            [1.0, 0.0, 1.0],  # "11", same distance, same score by symmetry
        ]
    )
    space = EmbeddingSpace(["0", "4", "11"], vectors)
    sub = substitute_slice(Slice((0,)), space, GeneratorConfig(top_n=2))
    assert sub.result.form == "11"  # "11" < "4" as strings


def test_pitch_class_weights_frozen():
    slices = [Slice((0,)), Slice((0, 4)), Slice((4, 7))]
    weights = pitch_class_weights(slices)
    expected = [0.0] * 12
    expected[0] = 0.4
    expected[4] = 0.4
    expected[7] = 0.2
    assert weights == expected
    assert pitch_class_weights([]) == [0.0] * 12
    assert pitch_class_weights([Slice(())]) == [0.0] * 12


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(top_n=0)


def test_rewrite_piece_diagnostics():
    space = EmbeddingSpace(
        ["UNK", "0", "4", "7"], np.array([[9.0, 9], [1, 0], [1, 1], [0, 1]])
    )
    piece = [Slice((0,)), Slice((1, 2))]  # second is OOV
    out, diags = rewrite_piece(piece, space, GeneratorConfig(top_n=2))
    first, second = (diags.subs[i] for i in diags.which)
    assert len(out) == len(diags.which) == 2
    assert diags.original.tolist() == piece and diags.substitute.tolist() == out
    assert first.original.form == "0" and first.result == out[0]
    assert first.distance is not None
    assert second.result.form == "1.2" and second.distance is None
    assert diags.top_n == 2


def test_rewrite_piece_equals_per_beat_substitution():
    rnd = random.Random(31)
    gen = np.random.default_rng(31)
    forms = ["UNK", "R"] + sorted(
        {Slice(tuple(sorted(rnd.sample(range(12), rnd.randrange(1, 5))))).form for _ in range(40)}
    )
    space = EmbeddingSpace(forms, gen.standard_normal((len(forms), 8)))
    motif = [Slice.from_form(f) for f in rnd.sample(forms[1:], 7)] + [Slice((0, 1, 2, 3, 4))]
    piece = [rnd.choice(motif) for _ in range(120)]  # repeats, rests and one OOV slice
    config = GeneratorConfig(top_n=4)
    out, diags = rewrite_piece(piece, space, config)
    subs = [substitute_slice(s, space, config) for s in piece]
    assert out == [sub.result for sub in subs]
    assert [diags.subs[i] for i in diags.which] == subs
    assert diags.original.tolist() == piece and diags.substitute.tolist() == out
    assert diags.top_n == 4
    assert len(set(piece)) < len(piece)


def test_save_diagnostics_csv(tmp_path):
    space = EmbeddingSpace(
        ["UNK", "0", "4", "7"], np.array([[9.0, 9], [1, 0], [1, 1], [0, 1]])
    )
    piece = [Slice((0,)), Slice((1, 2))]
    _, diags = rewrite_piece(piece, space, GeneratorConfig(top_n=2))
    path = tmp_path / "diag.csv"
    save_diagnostics(str(path), diags)
    lines = path.read_text().splitlines()
    assert lines[0] == "beat,original,substitute,cosine_distance,top_n"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert float(first[3]) == diags.subs[diags.which[0]].distance  # repr round-trips
    second = lines[2].split(",")
    assert second[1] == "1.2" and second[3] == ""  # None -> empty field


def _beats_to_events(beats, tpb):
    events = []
    for b, s in enumerate(beats):
        for pc in s.pitch_classes:
            events.append(NoteEvent(60 + pc, b * tpb, (b + 1) * tpb, 0))
    return events


def slices_from_piece_events(events, grid):
    from slicevec.slicer import make_slice

    return [
        make_slice(sounding_pitches(events, grid, b))
        for b in range(grid.piece_length_beats)
    ]


def test_emit_midi_preserves_unchanged_events():
    tpb = 10
    events = [NoteEvent(64, 0, 25, 3), NoteEvent(67, 5, 30, 0)]
    grid = BeatGrid(tpb, 3)
    substitutes = slices_from_piece_events(events, grid)  # identical slices
    piece = parse_midi(emit_midi(MidiPiece(note_array(events), grid), substitutes))
    assert sorted(piece.events, key=lambda e: (e.onset_ticks, e.pitch)) == sorted(
        events, key=lambda e: (e.onset_ticks, e.pitch)
    )


def test_emit_midi_splits_held_note_around_changed_beat():
    tpb = 10
    events = [NoteEvent(60, 0, 40, 0)]
    grid = BeatGrid(tpb, 4)
    substitutes = [Slice((0,)), Slice((2,)), Slice((0,)), Slice((0,))]
    piece = parse_midi(emit_midi(MidiPiece(note_array(events), grid), substitutes))
    got = sorted(piece.events, key=lambda e: (e.onset_ticks, e.pitch))
    assert got == [
        NoteEvent(60, 0, 10, 0),
        NoteEvent(62, 10, 20, 0),
        NoteEvent(60, 20, 40, 0),
    ]
    assert slices_from_piece(piece) == substitutes


def test_emit_midi_fills_changed_rest_beat():
    tpb = 8
    events = [NoteEvent(64, 0, 16, 2)]
    grid = BeatGrid(tpb, 4)
    substitutes = [Slice((4,)), Slice((4,)), Slice((0, 4, 7)), Slice((11,))]
    piece = parse_midi(emit_midi(MidiPiece(note_array(events), grid), substitutes))
    got = sorted(piece.events, key=lambda e: (e.onset_ticks, e.pitch))
    assert got == [
        NoteEvent(64, 0, 16, 2),
        NoteEvent(60, 16, 24, 0),
        NoteEvent(64, 16, 24, 0),
        NoteEvent(67, 16, 24, 0),
        NoteEvent(71, 24, 32, 0),
    ]
    assert slices_from_piece(piece) == substitutes


def test_emit_midi_length_mismatch():
    grid = BeatGrid(10, 4)
    with pytest.raises(ValueError, match="substitutes"):
        emit_midi(MidiPiece(note_array([]), grid), [Slice((0,))])


def test_emit_parse_slice_round_trip_random():
    rnd = random.Random(31)
    for _ in range(40):
        tpb = rnd.choice([4, 10, 480])
        n_beats = rnd.randrange(2, 9)
        beats = []
        for _ in range(n_beats):
            k = rnd.randrange(0, 4)
            beats.append(Slice(tuple(sorted(rnd.sample(range(12), k)))))
        events = _beats_to_events(beats, tpb)
        substitutes = list(beats)
        for b in range(n_beats):
            if rnd.random() < 0.5:
                k = rnd.randrange(0, 4)
                substitutes[b] = Slice(tuple(sorted(rnd.sample(range(12), k))))
        # keep the final beat audible so the parsed piece keeps its length
        substitutes[-1] = Slice((rnd.randrange(12),))
        piece = MidiPiece(note_array(events), BeatGrid(tpb, n_beats))
        piece = parse_midi(emit_midi(piece, substitutes))
        assert slices_from_piece(piece) == substitutes


def _emit_midi_walk(piece, substitutes):
    """Reference emit: walk every beat of every note, keeping its unchanged runs."""
    n_beats = piece.grid.piece_length_beats
    tpb = piece.grid.ticks_per_beat
    changed = [sub != orig for sub, orig in zip(substitutes, slices_from_piece(piece))]
    rows = []
    for pitch, onset, offset, channel in piece.notes.tolist():
        first = onset // tpb
        last = (offset - 1) // tpb
        b = first
        while b <= last:
            if b < n_beats and changed[b]:
                b += 1
                continue
            run_start = b
            while b <= last and not (b < n_beats and changed[b]):
                b += 1
            seg_start = max(onset, run_start * tpb)
            seg_end = min(offset, b * tpb)
            if seg_end > seg_start:
                rows.append((pitch, seg_start, seg_end, channel))
    for b in range(n_beats):
        if changed[b]:
            for pc in substitutes[b].pitch_classes:
                rows.append((RENDER_BASE_PITCH + pc, b * tpb, (b + 1) * tpb, 0))
    return write_smf(rows, tpb)


def test_emit_midi_matches_the_beat_walk_on_random_pieces():
    rnd = random.Random(47)
    for _ in range(300):
        tpb = rnd.choice([1, 2, 3, 7, 96, 480])
        span = rnd.randrange(1, 12)  # beats the notes reach
        events = []
        for _ in range(rnd.randrange(0, 10)):
            onset = rnd.randrange(0, span * tpb)
            offset = rnd.randrange(onset + 1, span * tpb + 1)
            events.append(NoteEvent(rnd.randrange(128), onset, offset, rnd.randrange(16)))
        # grids shorter than, equal to and longer than the notes
        grid = BeatGrid(tpb, max(1, span + rnd.randrange(-3, 4)))
        piece = MidiPiece(note_array(events), grid)
        substitutes = [
            Slice(tuple(sorted(rnd.sample(range(12), rnd.randrange(4)))))
            if rnd.random() < 0.5 else orig
            for orig in slices_from_piece(piece)
        ]
        assert emit_midi(piece, substitutes) == _emit_midi_walk(piece, substitutes)


def test_emit_midi_time_follows_its_input_not_the_held_beats():
    # 2,000 notes held to beat 2^18 at one tick per beat: the beat walk
    # visits about 5e8 beats; clipping to runs visits each note's few runs
    n_beats = 1 << 18
    rnd = random.Random(5)
    notes = np.array(
        [(rnd.randrange(128), rnd.randrange(4096), n_beats, rnd.randrange(16))
         for _ in range(2000)],
        dtype=np.int64,
    )
    piece = MidiPiece(notes, BeatGrid(1, n_beats))
    substitutes = slices_from_piece(piece)
    for b in (100, 5000, n_beats - 1):
        substitutes[b] = Slice((rnd.randrange(12),))
    start = time.perf_counter()
    data = emit_midi(piece, substitutes)
    assert time.perf_counter() - start < 5.0
    assert slices_from_piece(parse_midi(data))[5000] == substitutes[5000]


def test_a_long_piece_matches_per_beat_substitution(tiny_space, tmp_path):
    from slicevec.synth import generate_piece, piece_notes, piece_rng

    # D major over a C/G/F major space: in- and out-of-vocabulary slices, repeated
    beats = generate_piece(2, "major", 1000, piece_rng(11, 2, "major", 0))
    notes, grid = piece_notes(beats)
    piece = MidiPiece(notes, grid)
    slices = slices_from_piece(piece)
    assert len(slices) >= 4000
    config = GeneratorConfig(top_n=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out, diags = rewrite_piece(slices, tiny_space, config)
        subs = [substitute_slice(s, tiny_space, config) for s in slices]
    assert out == [sub.result for sub in subs]
    assert 0 < sum(sub.distance is None for sub in subs) < len(subs)
    assert len(diags.which) == len(slices)
    path = tmp_path / "diag.csv"
    save_diagnostics(str(path), diags)
    want = ["beat,original,substitute,cosine_distance,top_n"] + [
        f"{b},{s.form},{sub.result.form},{'' if sub.distance is None else repr(sub.distance)},4"
        for b, (s, sub) in enumerate(zip(slices, subs))
    ]
    assert path.read_bytes() == "".join(f"{line}\r\n" for line in want).encode()
    data = emit_midi(piece, out)
    assert data == emit_midi(piece, out, diags.original) == _emit_midi_walk(piece, out)
    assert emit_midi(piece, diags.substitute, diags.original) == data  # as generate calls it
    assert slices_from_piece(parse_midi(data)) == out
