"""The one-pass MIDI reader against the object-per-event reference reader.

Hypothesis builds standard MIDI files with running status, meta, sysex and
non-note channel messages, percussion, overlapping same-pitch, zero-length
and stray notes, notes left open, several tracks and missing end-of-track
metas, then truncates or mutates some of them. The reader must give the
reference's notes, grid and unclosed count, or its error text. The examples
are derandomized, so every run checks the same files.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st
from midi_oracle import note_array, parse_midi_reference, write_varlen

from slicevec.midi import (
    PERCUSSION_CHANNEL,
    MidiParseError,
    MidiPiece,
    NoteEvent,
    parse_midi,
    write_smf,
)
from slicevec.slicer import slices_from_piece
from slicevec.synth import generate_piece, piece_notes, piece_rng

FIXED = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

EOT = b"\x00\xff\x2f\x00"
CHANNELS = (0, 1, PERCUSSION_CHANNEL)
PITCHES = (60, 61, 62)  # few pitches, so same-pitch notes overlap
DELTAS = (0, 0, 1, 3, 0x7F, 0x80, 0x3FFF, 0x4000, 200_000)
OTHER_KINDS = (0xA0, 0xB0, 0xC0, 0xD0, 0xE0)


def header(fmt: int, ntrks: int, division: int) -> bytes:
    return b"MThd" + struct.pack(">IHHH", 6, fmt, ntrks, division)


def chunk(kind: bytes, body: bytes) -> bytes:
    return kind + struct.pack(">I", len(body)) + body


@st.composite
def track_bodies(draw) -> bytes:
    body = bytearray()
    running = None
    for _ in range(draw(st.integers(0, 20))):
        body += write_varlen(draw(st.sampled_from(DELTAS)))
        kind = draw(st.sampled_from(("on", "on", "off", "off", "on0", "other", "meta", "sysex")))
        if kind == "meta":
            payload = draw(st.binary(max_size=4))
            meta_type = draw(st.sampled_from((0x03, 0x51, 0x58, 0x2F)))
            body += bytes([0xFF, meta_type]) + write_varlen(len(payload)) + payload
            running = None
            continue
        if kind == "sysex":
            payload = draw(st.binary(max_size=4))
            body += bytes([draw(st.sampled_from((0xF0, 0xF7)))]) + write_varlen(len(payload)) + payload
            running = None
            continue
        channel = draw(st.sampled_from(CHANNELS))
        if kind == "other":
            status = draw(st.sampled_from(OTHER_KINDS)) | channel
            count = 1 if status & 0xF0 in (0xC0, 0xD0) else 2
            data = [draw(st.integers(0, 0x7F)) for _ in range(count)]
        else:
            status = (0x80 if kind == "off" else 0x90) | channel
            velocity = 0 if kind == "on0" else draw(st.integers(1, 0x7F))
            data = [draw(st.sampled_from(PITCHES)), velocity]
        if status != running or not draw(st.booleans()):
            body.append(status)
        running = status
        body += bytes(data)
    if draw(st.booleans()):
        body += EOT + draw(st.binary(max_size=3))  # bytes after the end are never read
    if draw(st.integers(0, 3)) == 0:
        return bytes(body[: draw(st.integers(0, len(body)))])  # cut inside the chunk
    return bytes(body)


@st.composite
def smf_files(draw) -> bytes:
    tracks = draw(st.lists(track_bodies(), min_size=1, max_size=3))
    fmt = 0 if len(tracks) == 1 and draw(st.booleans()) else 1
    division = draw(st.sampled_from((1, 4, 96, 480)))
    data = header(fmt, len(tracks), division)
    for body in tracks:
        if draw(st.integers(0, 4)) == 0:
            data += chunk(b"XFIH", draw(st.binary(max_size=4)))  # alien chunk, skipped
        data += chunk(b"MTrk", body)
    return data


@st.composite
def damaged_smf_files(draw) -> bytes:
    data = draw(smf_files())
    damage = draw(st.sampled_from(("none", "truncate", "mutate", "mutate", "insert")))
    if damage == "none":
        return data
    at = draw(st.integers(0, len(data) - 1))
    if damage == "truncate":
        return data[:at]
    byte = bytes([draw(st.integers(0, 0xFF))])
    if damage == "mutate":
        return data[:at] + byte + data[at + 1 :]
    return data[:at] + byte + data[at:]


def assert_matches_reference(data: bytes) -> None:
    try:
        events, grid, unclosed = parse_midi_reference(data)
    except MidiParseError as exc:
        with pytest.raises(MidiParseError) as got:
            parse_midi(data)
        assert str(got.value) == str(exc)
        return
    piece = parse_midi(data)
    assert piece.notes.dtype == np.int64 and piece.notes.shape == (len(events), 4)
    assert piece.notes.tolist() == note_array(events).tolist()
    assert piece.events == events
    assert piece.grid == grid
    assert piece.unclosed_notes == unclosed


@settings(FIXED, max_examples=500)
@seed(10)
@given(damaged_smf_files())
def test_reader_matches_reference(data):
    assert_matches_reference(data)


@pytest.mark.parametrize(
    "data",
    [
        header(0, 1, 4) + chunk(b"MTrk", b"\x81"),  # delta cut by the end of the file
        header(1, 2, 4) + chunk(b"MTrk", b"\x81") + chunk(b"MTrk", EOT),  # delta runs on
        header(0, 1, 4) + chunk(b"MTrk", b"\x81\x81\x81\x81\x01" + EOT),  # 5-byte delta
        header(0, 1, 4) + chunk(b"MTrk", b"\x00\xff\x03\x81"),  # meta length cut
        header(0, 1, 4) + chunk(b"MTrk", b"\x00\xf0\x81"),  # sysex length cut
        header(0, 1, 4) + chunk(b"MTrk", b"\x00\xf4\x00" + EOT),  # undefined status
        header(0, 1, 4) + chunk(b"MTrk", b"\x00\x90\x3c\x40\x00\x90\x3c\x40\x04\x80\x3c\x00"),
    ],
)
def test_reader_matches_reference_on_edge_files(data):
    assert_matches_reference(data)


@pytest.mark.parametrize(
    "body, message",
    [
        (b"\x00\x90\xc8\x40", "status byte where a data byte belongs at byte 24"),
        (b"\x00\x90\x3c\xc0", "status byte where a data byte belongs at byte 25"),
        (b"\x00\xb0\x07\xff", "status byte where a data byte belongs at byte 25"),
        (b"\x00\xc0\x80", "status byte where a data byte belongs at byte 24"),
        (b"\x00\x99\xc8\x40", "status byte where a data byte belongs at byte 24"),
    ],
)
def test_data_byte_with_high_bit_is_refused(body, message):
    data = header(0, 1, 4) + chunk(b"MTrk", body + EOT)
    with pytest.raises(MidiParseError) as got:
        parse_midi(data)
    assert str(got.value) == message
    assert_matches_reference(data)


@settings(FIXED, max_examples=300)
@seed(11)
@given(st.one_of(st.binary(max_size=64), st.binary(max_size=64).map(lambda b: header(1, 2, 8) + b)))
def test_arbitrary_bytes_raise_only_parse_errors(data):
    try:
        parse_midi(data)
    except MidiParseError:
        pass


@st.composite
def note_lists(draw) -> list[NoteEvent]:
    """Notes on any channel, percussion included; same-key notes never overlap."""
    keys = draw(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 127)), unique=True, max_size=6))
    events = []
    for channel, pitch in keys:
        cursor = 0
        for gap, length in draw(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 40)), max_size=5)):
            onset = cursor + gap
            cursor = onset + length
            events.append(NoteEvent(pitch, onset, cursor, channel))
    return draw(st.permutations(events))


@settings(FIXED, max_examples=200)
@seed(12)
@given(note_lists(), st.sampled_from((1, 3, 24, 480)))
def test_write_smf_round_trips(events, ticks_per_beat):
    piece = parse_midi(write_smf(note_array(events), ticks_per_beat))
    kept = [e for e in events if e.channel != PERCUSSION_CHANNEL]

    def order(e):
        return (e.onset_ticks, e.channel, e.pitch)

    assert sorted(piece.events, key=order) == sorted(kept, key=order)
    assert piece.unclosed_notes == 0
    assert piece.grid.ticks_per_beat == ticks_per_beat
    last = max((e.offset_ticks for e in kept), default=0)
    assert piece.grid.piece_length_beats == -(-last // ticks_per_beat)


def test_notes_and_events_agree_on_a_two_mode_corpus():
    for root in (0, 7):
        for mode in ("major", "minor"):
            for index in range(2):
                beats = generate_piece(root, mode, 6, piece_rng(4, root, mode, index))
                notes, grid = piece_notes(beats)
                parsed = parse_midi(write_smf(notes, grid.ticks_per_beat))
                assert parsed.notes.tolist() == note_array(parsed.events).tolist()
                built = MidiPiece(note_array(parsed.events), parsed.grid)
                assert np.array_equal(built.notes, parsed.notes)
                assert slices_from_piece(built) == slices_from_piece(parsed)
