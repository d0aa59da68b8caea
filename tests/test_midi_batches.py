"""read_pieces, the chunked reader that parse_midi and ingest share.

Several files decode as one chunk, so a file's piece must not depend on its
neighbours, on where a chunk ends, or on a bad file beside it.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from midi_oracle import note_array, parse_midi_reference
from test_midi_reader import EOT, FIXED, chunk, damaged_smf_files, header

from slicevec import midi
from slicevec.cli import main
from slicevec.midi import MidiParseError, MidiPiece, parse_midi, read_pieces, write_smf
from slicevec.synth import generate_piece, piece_notes, piece_rng


def _pieces(datas) -> list:
    return [piece for chunk in read_pieces(datas) for piece in chunk]


def _same(a, b) -> bool:
    if not isinstance(a, (MidiPiece, MidiParseError)):  # an item read_pieces passes through
        return a is b
    if isinstance(a, MidiParseError) or isinstance(b, MidiParseError):
        return type(a) is type(b) and str(a) == str(b)
    return (
        a.notes.tolist() == b.notes.tolist()
        and a.grid == b.grid
        and a.unclosed_notes == b.unclosed_notes
    )


@settings(FIXED, max_examples=300)
@seed(24)
@given(st.lists(damaged_smf_files(), min_size=1, max_size=6))
def test_a_batch_gives_each_file_what_the_reference_gives(datas):
    pieces = _pieces(datas)
    assert len(pieces) == len(datas)
    for data, piece in zip(datas, pieces):
        try:
            events, grid, unclosed = parse_midi_reference(data)
        except MidiParseError as exc:
            assert isinstance(piece, MidiParseError) and str(piece) == str(exc)
            continue
        assert isinstance(piece, MidiPiece)
        assert piece.notes.dtype == np.int64 and piece.notes.shape == (len(events), 4)
        assert piece.notes.tolist() == note_array(events).tolist()
        assert piece.grid == grid
        assert piece.unclosed_notes == unclosed


def _corpus() -> list[bytes]:
    """Synthesized pieces of several lengths, a two-track file with notes left open and
    meta events between runs, and two bad files among them."""
    datas = []
    for index, bars in enumerate((2, 9, 1, 16, 4, 7)):
        notes, grid = piece_notes(generate_piece(index % 12, "major", bars, piece_rng(3, 0, "major", index)))
        datas.append(write_smf(notes, grid.ticks_per_beat))
    first = b"\x00\x90\x3c\x40\x04\xff\x51\x03\x07\xa1\x20\x02\xa1\x20\x05\x01\x80\x3c\x00"
    second = b"\x00\xc1\x05\x00\x91\x40\x40\x03\x40\x00\x01\x91\x40\x40"  # no end of track
    two_tracks = header(1, 2, 4) + chunk(b"MTrk", first + b"\x00\x90\x3e\x40" + EOT) + chunk(b"MTrk", second)
    datas[3:3] = [two_tracks, b"MThd not a MIDI file", datas[0][:-9]]
    return datas


@pytest.mark.parametrize("chunk_bytes", [1, 1500, 1 << 40])
def test_chunk_boundaries_change_no_piece(monkeypatch, chunk_bytes):
    datas = _corpus()
    expected = [_pieces([data])[0] for data in datas]  # one file per chunk
    assert sum(isinstance(p, MidiParseError) for p in expected) == 2
    # None and an exception come back in their place; a bytearray parses as its bytes do
    unread = OSError("unreadable")
    datas[2:2], expected[2:2] = [None], [None]
    datas += [bytearray(datas[1]), unread]
    expected += [expected[1], unread]
    monkeypatch.setattr(midi, "_CHUNK_BYTES", chunk_bytes)
    got = _pieces(datas)
    assert len(got) == len(datas)
    assert got[2] is None and got[-1] is unread
    assert all(_same(a, b) for a, b in zip(expected, got))
    for data, piece in zip(datas, got):
        if isinstance(piece, MidiPiece):
            assert _same(parse_midi(data), piece)


@pytest.mark.parametrize("chunk_bytes", [1, midi._CHUNK_BYTES])
def test_ingest_skips_a_bad_file_between_good_ones(tmp_path, monkeypatch, capsys, chunk_bytes):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(midi, "_CHUNK_BYTES", chunk_bytes)
    assert main(["synth", "--out-dir", "good", "--keys", "C,G", "--modes", "major",
                 "--pieces-per-key", "2", "--bars", "4"]) == 0
    shutil.copytree("good", "mixed")
    with open("mixed/C_major_00b.mid", "wb") as fh:  # sorts between two good files
        fh.write(header(0, 1, 4) + chunk(b"MTrk", b"\x00\x90\x3c\xc0" + EOT))
    os.mkdir("mixed/G_major_00b.mid")  # a path that does not read
    caches = {}
    for name in ("good", "mixed"):
        capsys.readouterr()
        argv = ["ingest", "--corpus-dir", name, "--corpus-cache", f"{name}_corpus.txt",
                "--vocab-cache", f"{name}_vocab.txt"]
        assert main(argv) == 0
        err = capsys.readouterr().err.splitlines()
        caches[name] = [open(f"{name}_{c}.txt", "rb").read() for c in ("corpus", "vocab")]
    assert err[0] == "skipping mixed/C_major_00b.mid: status byte where a data byte belongs at byte 25"
    assert err[1].startswith("skipping mixed/G_major_00b.mid: ")
    assert len(err) == 2
    assert caches["mixed"] == caches["good"]
