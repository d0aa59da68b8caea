"""SMF parsing against hand-assembled bytes, plus writer round-trips."""

from __future__ import annotations

import random
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from midi_oracle import (
    beat_span,
    note_array,
    sounding_pitches,
    write_smf_reference,
    write_varlen,
)

from slicevec.midi import (
    MAX_BEATS,
    MAX_VARLEN,
    BeatGrid,
    MidiParseError,
    NoteEvent,
    _read_varlen,
    parse_midi,
    write_smf,
)

EOT = b"\x00\xff\x2f\x00"


def header(fmt: int, ntrks: int, division: int) -> bytes:
    return b"MThd" + struct.pack(">IHHH", 6, fmt, ntrks, division)


def track(body: bytes) -> bytes:
    return b"MTrk" + struct.pack(">I", len(body)) + body


def test_single_note():
    body = bytes([0x00, 0x90, 60, 64]) + bytes([0x60, 0x80, 60, 0]) + EOT
    piece = parse_midi(header(0, 1, 24) + track(body))
    assert piece.events == [NoteEvent(60, 0, 0x60, 0)]
    assert piece.grid == BeatGrid(24, 4)  # 96 ticks / 24 per beat
    assert piece.unclosed_notes == 0


def test_running_status():
    body = (
        bytes([0x00, 0x90, 60, 64])
        + bytes([0x00, 62, 64])  # running status: still note-on channel 0
        + bytes([0x60, 0x80, 60, 0])
        + bytes([0x00, 62, 0])
        + EOT
    )
    piece = parse_midi(header(0, 1, 96) + track(body))
    assert piece.events == [NoteEvent(60, 0, 96, 0), NoteEvent(62, 0, 96, 0)]


def test_velocity_zero_note_on_is_note_off():
    body = bytes([0x00, 0x90, 60, 64]) + bytes([0x30, 0x90, 60, 0]) + EOT
    piece = parse_midi(header(0, 1, 48) + track(body))
    assert piece.events == [NoteEvent(60, 0, 0x30, 0)]
    assert piece.unclosed_notes == 0


def test_format_1_merges_tracks_and_drops_percussion():
    tempo = bytes([0x00, 0xFF, 0x51, 0x03, 0x07, 0xA1, 0x20]) + EOT
    melody = bytes([0x00, 0x90, 64, 80, 0x10, 0x80, 64, 0]) + EOT
    drums_and_bass = (
        bytes([0x00, 0x99, 36, 100])  # channel 9: percussion, dropped
        + bytes([0x05, 0x91, 40, 70])
        + bytes([0x05, 0x89, 36, 0])
        + bytes([0x06, 0x81, 40, 0])
        + EOT
    )
    data = header(1, 3, 16) + track(tempo) + track(melody) + track(drums_and_bass)
    piece = parse_midi(data)
    assert piece.events == [NoteEvent(64, 0, 16, 0), NoteEvent(40, 5, 16, 1)]


def test_overlapping_same_pitch_pairs_fifo():
    body = (
        bytes([0x00, 0x90, 60, 64])
        + bytes([0x0A, 0x90, 60, 64])
        + bytes([0x0A, 0x80, 60, 0])  # tick 20: closes the tick-0 onset
        + bytes([0x0A, 0x80, 60, 0])  # tick 30: closes the tick-10 onset
        + EOT
    )
    piece = parse_midi(header(0, 1, 10) + track(body))
    assert piece.events == [NoteEvent(60, 0, 20, 0), NoteEvent(60, 10, 30, 0)]


def test_unclosed_note_closes_at_end_of_track():
    body = bytes([0x00, 0x90, 60, 64]) + bytes([0x32]) + EOT[1:]
    piece = parse_midi(header(0, 1, 25) + track(body))
    assert piece.events == [NoteEvent(60, 0, 50, 0)]
    assert piece.unclosed_notes == 1


def test_unclosed_note_at_final_tick_gets_length_one():
    # the note-on arrives on the same tick as end of track
    body = bytes([0x10, 0x90, 60, 64]) + EOT
    piece = parse_midi(header(0, 1, 4) + track(body))
    assert piece.events == [NoteEvent(60, 0x10, 0x11, 0)]
    assert piece.unclosed_notes == 1


def test_zero_length_note_dropped():
    body = bytes([0x05, 0x90, 60, 64]) + bytes([0x00, 0x80, 60, 0]) + EOT
    piece = parse_midi(header(0, 1, 4) + track(body))
    assert piece.events == []
    assert piece.grid.piece_length_beats == 0


def test_stray_note_off_ignored():
    body = bytes([0x00, 0x80, 60, 0]) + bytes([0x00, 0x90, 62, 64, 0x08, 0x80, 62, 0]) + EOT
    piece = parse_midi(header(0, 1, 8) + track(body))
    assert piece.events == [NoteEvent(62, 0, 8, 0)]


def test_meta_event_cancels_running_status():
    body = (
        bytes([0x00, 0x90, 60, 64])
        + bytes([0x00, 0xFF, 0x01, 0x02, 0x41, 0x42])  # text meta
        + bytes([0x00, 60, 0])  # would need running status, which meta cleared
        + EOT
    )
    with pytest.raises(MidiParseError, match="running status"):
        parse_midi(header(0, 1, 8) + track(body))


def test_sysex_skipped():
    body = (
        bytes([0x00, 0xF0, 0x03, 0x01, 0x02, 0xF7])
        + bytes([0x00, 0x90, 60, 64, 0x04, 0x80, 60, 0])
        + EOT
    )
    piece = parse_midi(header(0, 1, 4) + track(body))
    assert piece.events == [NoteEvent(60, 0, 4, 0)]


def test_alien_chunks_skipped():
    alien = b"XFIH" + struct.pack(">I", 3) + b"abc"
    body = bytes([0x00, 0x90, 60, 64, 0x04, 0x80, 60, 0]) + EOT
    piece = parse_midi(header(0, 1, 4) + alien + track(body))
    assert piece.events == [NoteEvent(60, 0, 4, 0)]


def test_events_sorted_by_onset_stable():
    t1 = bytes([0x10, 0x90, 70, 64, 0x10, 0x80, 70, 0]) + EOT
    t2 = bytes([0x00, 0x90, 50, 64, 0x08, 0x80, 50, 0]) + EOT
    t3 = bytes([0x10, 0x91, 60, 64, 0x08, 0x81, 60, 0]) + EOT
    piece = parse_midi(header(1, 3, 8) + track(t1) + track(t2) + track(t3))
    # onset order, with the tick-16 tie keeping track order (70 before 60)
    assert [e.pitch for e in piece.events] == [50, 70, 60]


@pytest.mark.parametrize(
    "data, message",
    [
        (b"", "shorter than"),
        (b"RIFF" + bytes(20), "MThd"),
        (header(2, 1, 96), "format 2"),
        (header(0, 1, 0x8000), "SMPTE"),
        (header(0, 1, 0), "zero ticks"),
        (b"MThd" + struct.pack(">I", 5) + bytes(10), "MThd length"),
        (header(0, 1, 96), "track chunk"),
        (header(0, 1, 96) + b"MTrk" + struct.pack(">I", 99) + b"\x00", "overruns"),
    ],
)
def test_malformed_files_raise_with_context(data, message):
    with pytest.raises(MidiParseError, match=message):
        parse_midi(data)


def test_error_messages_name_byte_offsets():
    with pytest.raises(MidiParseError, match="byte 0"):
        parse_midi(b"RIFF" + bytes(20))


def test_truncated_varlen_rejected():
    body = bytes([0x80, 0x80, 0x80, 0x80, 0x80])  # five continuation bytes
    with pytest.raises(MidiParseError, match="variable-length"):
        parse_midi(header(0, 1, 96) + track(body))


def test_truncated_channel_event_rejected():
    body = bytes([0x00, 0x90, 60])  # missing velocity byte
    with pytest.raises(MidiParseError, match="truncated"):
        parse_midi(header(0, 1, 96) + track(body))


def test_unsupported_status_rejected():
    body = bytes([0x00, 0xF1, 0x00])
    with pytest.raises(MidiParseError, match="unsupported status"):
        parse_midi(header(0, 1, 96) + track(body))


def far_note_file() -> bytes:
    """37 bytes, PPQ 1: one note from tick 2^28 - 2 to 2^28 - 1."""
    body = write_varlen((1 << 28) - 2) + bytes([0x90, 60, 64, 0x01, 0x80, 60, 0]) + EOT
    return header(0, 1, 1) + track(body)


def test_piece_longer_than_max_beats_is_refused():
    data = far_note_file()
    assert len(data) == 37
    with pytest.raises(MidiParseError, match="beat limit"):
        parse_midi(data)


def test_max_beats_counts_across_tracks():
    def note_until(tick: int) -> bytes:
        return track(write_varlen(tick - 1) + bytes([0x90, 60, 64, 0x01, 0x80, 60, 0]) + EOT)

    at_limit = parse_midi(header(1, 2, 2) + note_until(4) + note_until(2 * MAX_BEATS))
    assert at_limit.grid == BeatGrid(2, MAX_BEATS)
    with pytest.raises(MidiParseError, match="beat limit"):
        parse_midi(header(1, 2, 2) + note_until(4) + note_until(2 * MAX_BEATS + 1))


def test_varlen_round_trip():
    boundary = [0, 1, 0x7F, 0x80, 0x3FFF, 0x4000, 0x1FFFFF, 0x200000, 0x0FFFFFFF]
    rnd = random.Random(2)
    for value in boundary + [rnd.randrange(0x0FFFFFFF) for _ in range(200)]:
        encoded = write_varlen(value)
        assert 1 <= len(encoded) <= 4
        decoded, pos = _read_varlen(encoded + b"\xAA", 0)
        assert decoded == value
        assert pos == len(encoded)


def test_sounding_pitches_matches_per_tick_oracle():
    rnd = random.Random(8)
    tpb = 4
    for _ in range(200):
        events = []
        for _ in range(rnd.randrange(1, 12)):
            onset = rnd.randrange(0, 40)
            offset = onset + rnd.randrange(1, 12)
            events.append(NoteEvent(rnd.randrange(30, 50), onset, offset, 0))
        n_beats = max(-(-e.offset_ticks // tpb) for e in events)
        grid = BeatGrid(tpb, n_beats)
        for beat in range(n_beats):
            start, end = beat_span(grid, beat)
            expected = {
                e.pitch
                for e in events
                for t in range(start, end)
                if e.onset_ticks <= t < e.offset_ticks
            }
            assert sounding_pitches(events, grid, beat) == expected


def test_sounding_pitches_boundary_is_half_open():
    grid = BeatGrid(10, 2)
    events = [NoteEvent(60, 0, 10, 0)]  # ends exactly on the beat boundary
    assert sounding_pitches(events, grid, 0) == {60}
    assert sounding_pitches(events, grid, 1) == set()


def test_sounding_pitches_range_check():
    grid = BeatGrid(10, 2)
    with pytest.raises(IndexError):
        sounding_pitches([], grid, 2)
    with pytest.raises(IndexError):
        sounding_pitches([], grid, -1)


def test_write_then_parse_recovers_events():
    rnd = random.Random(13)
    for _ in range(60):
        events = []
        cursor_by_pitch = {}
        for _ in range(rnd.randrange(1, 15)):
            pitch = rnd.randrange(40, 52)
            channel = rnd.randrange(0, 3)
            key = (channel, pitch)
            onset = cursor_by_pitch.get(key, 0) + rnd.randrange(0, 12)
            offset = onset + rnd.randrange(1, 20)
            cursor_by_pitch[key] = offset  # same-pitch events never overlap
            events.append(NoteEvent(pitch, onset, offset, channel))
        data = write_smf(note_array(events), 24)
        parsed = parse_midi(data)
        assert sorted(parsed.events, key=lambda e: (e.onset_ticks, e.channel, e.pitch)) == sorted(
            events, key=lambda e: (e.onset_ticks, e.channel, e.pitch)
        )


def test_write_parse_preserves_sounding_sets_with_overlaps():
    # overlapping same-pitch notes may re-pair on/off boundaries, but the
    # per-beat sounding sets must survive
    events = [
        NoteEvent(60, 0, 30, 0),
        NoteEvent(60, 10, 20, 0),
        NoteEvent(64, 5, 25, 0),
    ]
    grid = BeatGrid(10, 3)
    parsed = parse_midi(write_smf(note_array(events), 10))
    for beat in range(3):
        assert sounding_pitches(parsed.events, parsed.grid, beat) == sounding_pitches(
            events, grid, beat
        )


def test_writer_bytes_do_not_depend_on_event_order():
    rnd = random.Random(3)
    notes = np.array(
        [(60, 0, 10, 0), (64, 0, 10, 1), (67, 5, 15, 0), (60, 10, 20, 0)], dtype=np.int64
    )
    reference = write_smf(notes, 10)
    for _ in range(5):
        order = list(range(len(notes)))
        rnd.shuffle(order)
        assert write_smf(notes[order], 10) == reference


def test_writer_emits_offs_before_ons_at_shared_ticks():
    # back-to-back same-pitch notes: the off at tick 10 must precede the on
    events = [NoteEvent(60, 0, 10, 0), NoteEvent(60, 10, 20, 0)]
    parsed = parse_midi(write_smf(note_array(events), 10))
    assert parsed.events == events
    assert parsed.unclosed_notes == 0


def test_writer_accepts_largest_delta_and_refuses_larger():
    # a delta holds at most MAX_VARLEN; the writer splits longer gaps with
    # empty text events, so every gap round-trips, and refuses only a note
    # before tick 0, whose first delta would be negative
    largest = (1 << 28) - 1
    with pytest.raises(ValueError, match="variable-length"):
        write_varlen(largest + 1)
    with pytest.raises(ValueError, match="variable-length quantity -2 "):
        write_smf([(60, -2, 5, 0)], 10)
    for events in (
        [NoteEvent(60, 0, largest, 0)],
        [NoteEvent(60, 0, largest + 1, 0)],
        [NoteEvent(60, largest + 1, largest + 2, 0)],
        [NoteEvent(62, 0, 3, 1), NoteEvent(60, 2 * largest + 5, 3 * largest, 0)],
    ):
        data = write_smf(note_array(events), 0x7FFF)
        assert parse_midi(data).events == events
    assert data.count(b"\xff\x01\x00") == 2  # a gap of 2 * largest + 2 ticks


def test_writer_header_fields():
    data = write_smf([(60, 0, 5, 0)], 48)
    fmt, ntrks, division = struct.unpack(">HHH", data[8:14])
    assert (fmt, ntrks, division) == (0, 1, 48)


def test_empty_file_round_trip():
    parsed = parse_midi(write_smf([], 96))
    assert parsed.events == []
    assert parsed.grid.piece_length_beats == 0


def test_note_event_validation():
    with pytest.raises(ValueError):
        NoteEvent(128, 0, 1, 0)
    with pytest.raises(ValueError):
        NoteEvent(60, 5, 5, 0)
    with pytest.raises(ValueError):
        NoteEvent(60, 0, 1, 16)


@pytest.mark.parametrize(
    "row",
    [
        (128, 0, 1, 0),  # pitch above 127
        (-1, 0, 1, 0),  # negative pitch
        (60, 0, 1, 16),  # channel above 15
        (60, 0, 1, -1),  # negative channel
        (60, 5, 5, 0),  # offset == onset
        (60, 5, 4, 0),  # offset < onset
    ],
)
def test_writer_refuses_rows_a_note_event_refuses(row):
    with pytest.raises(ValueError, match=r"note row \[[-0-9, ]+\]"):
        write_smf([(60, 0, 10, 0), row], 10)
    with pytest.raises(ValueError):
        NoteEvent(*row)


@pytest.mark.parametrize(
    "ticks_per_beat",
    [0, -1, 0x8000, 0x10000],  # 0x8000 is the SMPTE bit, which parse_midi refuses
)
def test_writer_refuses_header_fields_it_cannot_encode(ticks_per_beat):
    with pytest.raises(ValueError, match="ticks_per_beat"):
        write_smf([(60, 0, 10, 0)], ticks_per_beat)


def test_writer_accepts_the_largest_header_fields():
    data = write_smf([(60, 0, 10, 0)], 0x7FFF)
    assert struct.unpack(">H", data[12:14]) == (0x7FFF,)
    assert data[22:29] == b"\x00\xff\x51\x03\x07\xa1\x20"  # 500,000 us a beat
    assert parse_midi(data).grid.ticks_per_beat == 0x7FFF


def test_writer_never_puts_a_status_byte_where_a_data_byte_belongs():
    rows = [(p, p, p + 1 + c, c) for p in range(128) for c in (0, 9, 15)]
    data = write_smf(rows, 7)
    pos = 22 + 7  # past the header, the track header and the tempo meta
    n_messages = 0
    while True:
        while data[pos] & 0x80:  # delta-time continuation bytes
            pos += 1
        status, d1, d2 = data[pos + 1 : pos + 4]
        pos += 4
        if status == 0xFF:  # the end-of-track meta
            break
        assert status & 0xF0 in (0x80, 0x90)
        assert d1 < 0x80 and d2 < 0x80
        n_messages += 1
    assert (d1, pos, n_messages) == (0x2F, len(data), 2 * len(rows))


# deltas on each side of every varlen width change, the largest delta, and
# gaps that need one, two and five filler events
VARLEN_EDGES = (
    0, 1, 0x7F, 0x80, 0x3FFF, 0x4000, 0x1FFFFF, 0x200000, MAX_VARLEN - 1, MAX_VARLEN,
    MAX_VARLEN + 1, 2 * MAX_VARLEN, 2 * MAX_VARLEN + 1, 5 * MAX_VARLEN + 3,
)


@pytest.mark.parametrize("gap", VARLEN_EDGES[1:])
def test_writer_matches_the_per_message_oracle_at_each_delta_edge(gap):
    # the gap as the delta of a note-off, then of a note-on, then around a shared tick
    for rows in (
        [(60, 0, gap, 0)],
        [(60, gap, gap + 1, 0)],
        [(60, 0, gap, 0), (62, gap, 2 * gap, 3), (64, 2 * gap + 1, 2 * gap + 2, 15)],
    ):
        assert write_smf(rows, 96) == write_smf_reference(rows, 96)
    assert write_smf([], 96) == write_smf_reference([], 96)  # the empty piece


@st.composite
def note_arrays(draw) -> np.ndarray:
    """Notes whose onset gaps and lengths are drawn from the delta edges."""
    rows, onset = [], 0
    for _ in range(draw(st.integers(0, 24))):
        onset += draw(st.sampled_from(VARLEN_EDGES[:9]) | st.sampled_from(VARLEN_EDGES))
        length = draw(st.sampled_from(VARLEN_EDGES[1:]) | st.integers(1, 300))
        rows.append((draw(st.integers(0, 127)), onset, onset + length, draw(st.integers(0, 15))))
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


@given(notes=note_arrays(), ticks_per_beat=st.integers(1, 0x7FFF))
@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_writer_matches_the_per_message_oracle(notes, ticks_per_beat):
    assert write_smf(notes, ticks_per_beat) == write_smf_reference(notes, ticks_per_beat)
