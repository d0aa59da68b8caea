"""Slice canonicalization, vocabulary ranking, encoding, and cache files."""

from __future__ import annotations

import copy
import hashlib
import pickle
import random
import re
from collections import Counter

import numpy as np
import pytest
from analysis_oracle import transpose
from midi_oracle import note_array, sounding_pitches

from slicevec.midi import BeatGrid, MidiPiece, NoteEvent
from slicevec.slicer import (
    SLICES,
    EncodedCorpus,
    Slice,
    Vocabulary,
    build_vocabulary,
    encode_corpus,
    load_corpus,
    load_vocabulary,
    make_slice,
    read_corpus_lines,
    save_corpus,
    save_vocabulary,
    slices_from_piece,
)


def test_octave_collapse_examples():
    assert make_slice([60, 72]).form == "0"
    assert make_slice([76]).form == "4"
    assert make_slice([52, 57, 64, 76, 77]).form == "4.5.9"
    assert make_slice([]).form == "R"


def test_form_is_ascending_dot_joined():
    assert Slice((0, 4, 7)).form == "0.4.7"
    assert str(Slice((11,))) == "11"


def test_slice_validation():
    with pytest.raises(ValueError):
        Slice((4, 4))
    with pytest.raises(ValueError):
        Slice((5, 3))
    with pytest.raises(ValueError):
        Slice((12,))
    with pytest.raises(ValueError):
        Slice((-1,))


def test_from_form_round_trip():
    rnd = random.Random(6)
    for _ in range(300):
        pcs = tuple(sorted(rnd.sample(range(12), rnd.randrange(0, 6))))
        s = Slice(pcs)
        assert Slice.from_form(s.form) == s


def test_from_form_rejects_garbage():
    with pytest.raises(ValueError):
        Slice.from_form("abc")
    with pytest.raises(ValueError):
        Slice.from_form("0..4")
    with pytest.raises(ValueError):
        Slice.from_form("7.4")  # not ascending
    # int() reads each of these, but none is a canonical form
    for form in ("07", "+4", " 4", "4 ", "1_0", "0.4.07", "0.4.+7", "R.0", "UNK", ""):
        with pytest.raises(ValueError):
            Slice.from_form(form)
            pytest.fail(f"{form!r} was read as a slice")


def test_every_mask_is_one_shared_slice():
    for mask in range(1 << 12):
        pcs = tuple(pc for pc in range(12) if mask >> pc & 1)
        s = SLICES[mask]
        assert type(s) is Slice and int(s) == mask
        assert s.pitch_classes == pcs
        assert s.form == str(s) == (".".join(str(pc) for pc in pcs) if pcs else "R")
        assert Slice.from_form(s.form) is s
        assert Slice(pcs) is s
        assert s == mask and hash(s) == hash(mask)
        for k in range(-13, 14):  # the oracle's shift is the mask rotated, as the key matrix has it
            assert transpose(s, k) == (mask << k % 12 | mask >> (12 - k % 12)) & 0xFFF


def test_copy_and_pickle_give_back_the_slice():
    for s in (Slice(()), Slice((0, 4, 7)), Slice(tuple(range(12)))):
        assert copy.copy(s) is s
        assert copy.deepcopy(s) is s
        assert copy.deepcopy([s, s]) == [s, s]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            twin = pickle.loads(pickle.dumps(s, protocol))
            assert type(twin) is Slice and twin == s and twin.form == s.form
            if protocol >= 2:  # protocols 0 and 1 rebuild an equal int, not through __new__
                assert twin is s


def test_transpose_group_properties():
    rnd = random.Random(7)
    for _ in range(200):
        pcs = tuple(sorted(rnd.sample(range(12), rnd.randrange(0, 5))))
        s = Slice(pcs)
        a = rnd.randrange(-24, 25)
        b = rnd.randrange(-24, 25)
        assert transpose(s, 0) == s
        assert transpose(s, 12) == s
        assert transpose(transpose(s, a), b) == transpose(s, a + b)
        assert len(transpose(s, a).pitch_classes) == len(pcs)


def test_slices_from_piece():
    events = [
        NoteEvent(60, 0, 20, 0),  # sounds in beats 0 and 1
        NoteEvent(67, 10, 20, 0),
        NoteEvent(76, 30, 40, 0),
    ]
    piece = MidiPiece(note_array(events), BeatGrid(10, 4))
    forms = [s.form for s in slices_from_piece(piece)]
    assert forms == ["0", "0.7", "R", "4"]


def _per_beat_slices(piece):
    """The reference: scan every event for every beat."""
    return [
        make_slice(sounding_pitches(piece.events, piece.grid, beat))
        for beat in range(piece.grid.piece_length_beats)
    ]


def test_slices_from_piece_matches_per_beat_oracle():
    rnd = random.Random(12)
    for trial in range(300):
        tpb = rnd.choice((1, 2, 3, 4, 8))
        events = []
        for _ in range(rnd.randrange(0, 14)):
            onset = rnd.randrange(0, 12 * tpb)
            kind = rnd.randrange(4)
            if kind == 0:  # ends on a beat boundary
                offset = (onset // tpb + rnd.randrange(1, 4)) * tpb
            elif kind == 1:  # held for many beats
                offset = onset + rnd.randrange(6 * tpb, 20 * tpb)
            else:  # ends anywhere, often across a boundary
                offset = onset + rnd.randrange(1, 3 * tpb + 1)
            pitch = rnd.randrange(36, 84)
            events.append(NoteEvent(pitch, onset, offset, 0))
            if rnd.random() < 0.3:  # the same class an octave away, overlapping
                other = pitch + 12 if pitch < 72 else pitch - 12
                start = onset + rnd.randrange(0, offset - onset)
                events.append(NoteEvent(other, start, offset + rnd.randrange(0, 2 * tpb), 0))
        events.sort(key=lambda e: e.onset_ticks)
        full = max((-(-e.offset_ticks // tpb) for e in events), default=0)
        # the parsed length, and grids that stop short of or run past the notes
        n_beats = rnd.choice(
            (full, full, rnd.randrange(0, full + 1), full + rnd.randrange(1, 4))
        )
        piece = MidiPiece(note_array(events), BeatGrid(tpb, n_beats))
        assert slices_from_piece(piece) == _per_beat_slices(piece), trial


def test_slices_from_piece_without_events_or_beats():
    assert slices_from_piece(MidiPiece(note_array([]), BeatGrid(4, 3))) == [Slice(())] * 3
    assert slices_from_piece(MidiPiece(note_array([]), BeatGrid(4, 0))) == []
    held = note_array([NoteEvent(60, 0, 8, 0)])
    assert slices_from_piece(MidiPiece(held, BeatGrid(4, 0))) == []


def test_equal_slices_are_one_object(tmp_path):
    piece = MidiPiece(note_array([NoteEvent(60, 0, 8, 0), NoteEvent(72, 8, 12, 0)]), BeatGrid(4, 4))
    slices = slices_from_piece(piece)
    assert [s.form for s in slices] == ["0", "0", "0", "R"]
    assert slices[0] is slices[1] is slices[2]
    path = str(tmp_path / "corpus.txt")
    save_corpus(path, [slices, slices])
    loaded = load_corpus(path)
    assert loaded == [slices, slices]
    assert loaded[0][0] is loaded[0][1] is loaded[1][2]


def test_vocabulary_ranking_matches_counting_oracle():
    rnd = random.Random(11)
    pool = [Slice(tuple(sorted(rnd.sample(range(12), k)))) for k in (1, 2, 3) for _ in range(6)]
    for _ in range(30):
        stream = [rnd.choice(pool) for _ in range(rnd.randrange(20, 300))]
        max_size = rnd.randrange(2, 20)
        vocab = build_vocabulary(iter(stream), max_size)
        counts = Counter(stream)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0].form))
        kept = ranked[: max_size - 1]
        assert vocab.size == 1 + len(kept)
        for token, (s, count) in enumerate(kept, start=1):
            assert vocab.slice_of(token) == s
            assert vocab.count_of(token) == count
        ids = encode_corpus([[s for s, _ in kept]], vocab).pieces[0]
        assert ids.tolist() == list(range(1, vocab.size))
        folded = sum(c for _, c in ranked[max_size - 1 :])
        assert vocab.count_of(vocab.unk_id) == folded


def test_vocabulary_tie_break_is_lexicographic():
    a, b, c, d = (Slice.from_form(f) for f in ("9", "0.4.7", "0.3.7", "11"))
    stream = [a] * 3 + [b] * 2 + [c] * 2 + [d]
    vocab = build_vocabulary(iter(stream), max_size=3)
    # counts tie at 2: "0.3.7" sorts before "0.4.7"
    assert vocab.form_of(1) == "9"
    assert vocab.form_of(2) == "0.3.7"
    assert vocab.count_of(0) == 3  # two 0.4.7 plus one 11 folded into UNK


def test_unk_is_token_zero():
    vocab = build_vocabulary(iter([Slice((0,))]), max_size=5)
    assert vocab.unk_id == 0
    assert vocab.form_of(0) == "UNK"
    assert encode_corpus([[Slice((5,))]], vocab).pieces[0].tolist() == [0]  # out of vocabulary
    with pytest.raises(KeyError):
        vocab.slice_of(0)  # UNK names no single slice
    with pytest.raises(KeyError):
        vocab.slice_of(99)


def test_counts_array_order():
    stream = [Slice((0,))] * 4 + [Slice((3,))] * 2 + [Slice((7,))]
    vocab = build_vocabulary(iter(stream), max_size=3)
    assert vocab.counts_array().tolist() == [1, 4, 2]
    assert vocab.counts_array().dtype == np.int64


def test_build_vocabulary_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_vocabulary(iter([Slice((0,))]), max_size=1)
    with pytest.raises(ValueError):
        build_vocabulary(iter([]), max_size=5)


def decode_piece(ids, vocab: Vocabulary) -> list[str]:
    """Token ids back to canonical forms; UNK decodes to "UNK"."""
    return [vocab.form_of(int(t)) for t in ids]


def test_encode_decode():
    pieces = [[Slice((0,)), Slice((4,)), Slice((0,))], [Slice((9,))]]
    vocab = build_vocabulary((s for p in pieces for s in p), max_size=3)
    corpus = encode_corpus(pieces, vocab)
    assert corpus.total_tokens == 4
    assert all(p.dtype == np.int32 for p in corpus.pieces)
    # "0" kept (count 2); "4" and "9" tie at 1, "4" wins lexicographically
    assert corpus.pieces[0].tolist() == [1, 2, 1]
    assert corpus.pieces[1].tolist() == [0]
    assert decode_piece(corpus.pieces[0], vocab) == ["0", "4", "0"]
    assert decode_piece(corpus.pieces[1], vocab) == ["UNK"]


def test_trainable_pieces_need_two_tokens():
    corpus = EncodedCorpus.from_ids([[1, 2, 3], [4], [], [5, 6]])
    assert [p.tolist() for p in corpus.trainable_pieces()] == [[1, 2, 3], [5, 6]]


def test_corpus_cache_round_trip_and_byte_stability(tmp_path):
    pieces = [
        [Slice((0, 4, 7)), Slice(()), Slice((2,))],
        [],
        [Slice((11,))],
    ]
    digests = [hashlib.sha256(bytes([i])).hexdigest() for i in range(3)]
    path = tmp_path / "corpus.txt"
    save_corpus(str(path), pieces, digests)
    first = path.read_bytes()
    assert first.startswith(b"SLICECORPUS v2 3\n")
    assert list(read_corpus_lines(str(path))) == [
        (d, " ".join(s.form for s in piece)) for d, piece in zip(digests, pieces)
    ]
    loaded = load_corpus(str(path))
    assert loaded == pieces
    save_corpus(str(path), loaded, digests)
    assert path.read_bytes() == first


def test_vocab_cache_round_trip_and_byte_stability(tmp_path):
    stream = [Slice((0, 4, 7))] * 5 + [Slice(())] * 3 + [Slice((1,))]
    vocab = build_vocabulary(iter(stream), max_size=3)
    path = tmp_path / "vocab.txt"
    save_vocabulary(str(path), vocab)
    first = path.read_bytes()
    assert first.startswith(b"SLICEVOCAB v1 3\n")
    loaded = load_vocabulary(str(path))
    assert loaded == vocab
    save_vocabulary(str(path), loaded)
    assert path.read_bytes() == first


def test_corpus_cache_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("WRONG v1 1\n0.4.7\n")
    with pytest.raises(ValueError, match="SLICECORPUS"):
        load_corpus(str(path))
    path.write_text("SLICECORPUS v9 1\n0.4.7\n")
    with pytest.raises(ValueError, match="version"):
        load_corpus(str(path))
    path.write_text("SLICECORPUS v1 2\n0.4.7\n")
    with pytest.raises(ValueError, match="file ends after 1 of its 2 counted lines"):
        load_corpus(str(path))


def test_vocab_cache_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("SLICEVOCAB v1 2\n0 UNK 0\n2 0.4.7 5\n")
    with pytest.raises(ValueError, match="contiguous"):
        load_vocabulary(str(path))
    path.write_text("SLICEVOCAB v1 1\n0 0.4.7 5\n")
    with pytest.raises(ValueError, match="UNK"):
        load_vocabulary(str(path))


def test_corpus_cache_rejects_trailing_line_and_negative_count(tmp_path):
    path = tmp_path / "bad.txt"
    for text in ("SLICECORPUS v1 1\n0.4.7\n2.7.11\n", "SLICECORPUS v1 1\n0.4.7\n\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="after the 1 counted lines"):
            load_corpus(str(path))
    path.write_text("SLICECORPUS v1 -3\n")
    with pytest.raises(ValueError, match="negative count"):
        load_corpus(str(path))


def test_vocab_cache_rejects_trailing_line_and_negative_counts(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("SLICEVOCAB v1 2\n0 UNK 0\n1 0.4.7 5\n2 2.7.11 1\n")
    with pytest.raises(ValueError, match="after the 2 counted lines"):
        load_vocabulary(str(path))
    path.write_text("SLICEVOCAB v1 -1\n")
    with pytest.raises(ValueError, match="negative count in header"):
        load_vocabulary(str(path))
    path.write_text("SLICEVOCAB v1 2\n0 UNK -5\n1 0.4.7 5\n")
    with pytest.raises(ValueError, match="negative count for id 0"):
        load_vocabulary(str(path))
    path.write_text("SLICEVOCAB v1 3\n0 UNK 0\n1 0.4.7 5\n2 0.4.7 1\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: duplicate slice 0.4.7"):
        load_vocabulary(str(path))


def test_vocabulary_equality():
    stream = [Slice((0,))] * 2 + [Slice((4,))]
    v1 = build_vocabulary(iter(stream), max_size=3)
    v2 = build_vocabulary(iter(stream), max_size=3)
    v3 = build_vocabulary(iter(stream + [Slice((4,))]), max_size=3)
    assert v1 == v2
    assert v1 != v3
