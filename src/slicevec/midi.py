"""Standard MIDI File reading and writing.

Covers exactly what the slicing pipeline needs: SMF format 0 and 1, note
events on absolute tick times, and a beat grid taken from the file's PPQ
header (one beat = one quarter note). Channel 10 (index 9, percussion) is
discarded. Tempo and other meta events are skipped: slice boundaries are
metrical, so wall-clock time never enters the picture.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

PERCUSSION_CHANNEL = 9

# Longest piece parse_midi accepts, in beats: about 1,000 times the longest
# piece the pipeline is built for. Slicing allocates per beat, so a few bytes
# of delta time must not be able to ask for gigabytes.
MAX_BEATS = 1 << 18


class MidiParseError(ValueError):
    """Malformed SMF input. The message names the offending byte offset."""


@dataclass(frozen=True)
class NoteEvent:
    """One sounded note with a half-open tick interval [onset, offset)."""

    pitch: int
    onset_ticks: int
    offset_ticks: int
    channel: int

    def __post_init__(self):
        if not 0 <= self.pitch <= 127:
            raise ValueError(f"pitch {self.pitch} outside 0..127")
        if self.offset_ticks <= self.onset_ticks:
            raise ValueError(
                f"offset {self.offset_ticks} must exceed onset {self.onset_ticks}"
            )
        if not 0 <= self.channel <= 15:
            raise ValueError(f"channel {self.channel} outside 0..15")


@dataclass(frozen=True)
class BeatGrid:
    """Beat b covers ticks [b * ticks_per_beat, (b+1) * ticks_per_beat)."""

    ticks_per_beat: int
    piece_length_beats: int

    def __post_init__(self):
        if self.ticks_per_beat <= 0:
            raise ValueError("ticks_per_beat must be positive")
        if self.piece_length_beats < 0:
            raise ValueError("piece_length_beats must be >= 0")

    def beat_span(self, beat: int) -> tuple[int, int]:
        start = beat * self.ticks_per_beat
        return start, start + self.ticks_per_beat


@dataclass(eq=False)  # identity equality: field equality on an array is ambiguous
class MidiPiece:
    """A piece's notes on a beat grid.

    ``notes`` is an (n, 4) int64 array of (pitch, onset_ticks, offset_ticks,
    channel) rows; parse_midi orders them by onset. ``events`` holds the same
    notes as NoteEvents, built on first use. ``unclosed_notes`` counts the
    note-ons force-closed at end of track.
    """

    notes: np.ndarray
    grid: BeatGrid
    unclosed_notes: int = 0

    @cached_property
    def events(self) -> list[NoteEvent]:
        return [NoteEvent(*row) for row in self.notes.tolist()]


def _read_varlen(data: bytes, pos: int) -> tuple[int, int]:
    """Variable-length quantity at pos; returns (value, new_pos)."""
    value = 0
    for i in range(4):
        if pos >= len(data):
            raise MidiParseError(f"truncated variable-length quantity at byte {pos}")
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise MidiParseError(f"variable-length quantity longer than 4 bytes at byte {pos - 4}")


def _data_byte_error(data: bytes, pos: int) -> None:
    """Refuse the channel message whose data bytes start at pos: one has the status bit."""
    bad = pos if data[pos] & 0x80 else pos + 1
    raise MidiParseError(f"status byte where a data byte belongs at byte {bad}")


def _read_track(data: bytes, pos: int, end: int, notes: list[int]) -> int:
    """Read the MTrk events in data[pos:end]; return how many notes it closed at the end.

    Appends (pitch, onset, offset, channel) of each note to ``notes`` as four
    flat ints, in note-off order. A note-off ends the earliest open note-on of
    its channel and pitch; a note-off at its note-on's tick drops the note,
    and a stray one is ignored. Percussion is skipped. Notes still open at
    the end-of-track meta (or where the data runs out) are closed there, in
    (channel, pitch) order, and lasting at least one tick.
    """
    tick = 0
    running_status = None
    open_onsets: dict[int, list[int]] = {}  # channel << 7 | pitch -> onset ticks
    size = len(data)
    while pos < end:
        delta = data[pos]  # pos < end <= len(data): the first byte is there
        pos += 1
        if delta & 0x80:
            if pos < size and data[pos] < 0x80:  # the common two-byte delta
                delta = (delta & 0x7F) << 7 | data[pos]
                pos += 1
            else:
                delta, pos = _read_varlen(data, pos - 1)
        tick += delta
        if pos >= end:
            raise MidiParseError(f"truncated event at byte {pos}")
        status = data[pos]
        if status & 0x80:
            pos += 1
        elif running_status is None:
            raise MidiParseError(f"data byte {status:#x} with no running status at byte {pos}")
        else:
            status = running_status

        if status < 0xF0:  # channel message
            running_status = status
            if status < 0xA0:  # note off, note on
                if pos + 2 > end:
                    raise MidiParseError(f"truncated channel event at byte {pos}")
                pitch = data[pos]
                velocity = data[pos + 1]
                if (pitch | velocity) & 0x80:
                    _data_byte_error(data, pos)
                pos += 2
                channel = status & 0x0F
                if channel == PERCUSSION_CHANNEL:
                    continue
                key = channel << 7 | pitch
                onsets = open_onsets.get(key)
                if status >= 0x90 and velocity:
                    if onsets is None:
                        open_onsets[key] = [tick]
                    else:
                        onsets.append(tick)
                elif onsets:
                    onset = onsets.pop(0)
                    if tick > onset:  # a note-off at the onset tick drops the note
                        notes += (pitch, onset, tick, channel)
            else:  # aftertouch, control change, program change, pitch bend
                nbytes = 1 if 0xC0 <= status < 0xE0 else 2  # program change, channel aftertouch
                if pos + nbytes > end:
                    raise MidiParseError(f"truncated channel event at byte {pos}")
                if (data[pos] | data[pos + nbytes - 1]) & 0x80:
                    _data_byte_error(data, pos)
                pos += nbytes
        elif status == 0xFF:  # meta event
            running_status = None
            if pos >= end:
                raise MidiParseError(f"truncated meta event at byte {pos}")
            meta_type = data[pos]
            length, pos = _read_varlen(data, pos + 1)
            if pos + length > end:
                raise MidiParseError(f"meta event overruns track at byte {pos}")
            pos += length
            if meta_type == 0x2F:  # end of track
                break
        elif status == 0xF0 or status == 0xF7:  # sysex
            running_status = None
            length, pos = _read_varlen(data, pos)
            if pos + length > end:
                raise MidiParseError(f"sysex event overruns track at byte {pos}")
            pos += length
        else:
            raise MidiParseError(f"unsupported status byte {status:#x} at byte {pos - 1}")

    closed = 0
    for key in sorted(open_onsets):
        pitch, channel = key & 0x7F, key >> 7
        for onset in open_onsets[key]:
            notes += (pitch, onset, tick if tick > onset else onset + 1, channel)
            closed += 1
    return closed


def parse_midi(data: bytes) -> MidiPiece:
    """Parse SMF format 0/1 bytes into notes plus a beat grid.

    Every note-on with a matching note-off (or note-on at velocity 0) becomes
    one note; percussion-channel events are discarded; a note-on left open
    at end of track is closed there and counted in ``unclosed_notes``. A
    channel message with a data byte of 0x80 or more is refused. Notes are
    ordered by onset, ties in track order. The grid's ticks_per_beat is the
    header PPQ value. A piece whose last note ends after MAX_BEATS beats is
    refused.
    """
    if len(data) < 14:
        raise MidiParseError("file shorter than an SMF header (byte 0)")
    if data[0:4] != b"MThd":
        raise MidiParseError("missing MThd magic at byte 0")
    header_len = struct.unpack(">I", data[4:8])[0]
    if header_len < 6 or 8 + header_len > len(data):
        raise MidiParseError("bad MThd length at byte 4")
    fmt, ntrks, division = struct.unpack(">HHH", data[8:14])
    if fmt not in (0, 1):
        raise MidiParseError(f"unsupported SMF format {fmt} at byte 8")
    if division & 0x8000:
        raise MidiParseError("SMPTE division is unsupported (byte 12)")
    if division == 0:
        raise MidiParseError("zero ticks-per-beat division at byte 12")

    pos = 8 + header_len
    flat: list[int] = []
    unclosed = 0
    tracks_seen = 0
    while tracks_seen < ntrks:
        if pos + 8 > len(data):
            raise MidiParseError(f"expected track chunk at byte {pos}")
        chunk_id = data[pos : pos + 4]
        chunk_len = struct.unpack(">I", data[pos + 4 : pos + 8])[0]
        body_start = pos + 8
        body_end = body_start + chunk_len
        if body_end > len(data):
            raise MidiParseError(f"chunk overruns file at byte {pos}")
        if chunk_id == b"MTrk":
            unclosed += _read_track(data, body_start, body_end, flat)
            tracks_seen += 1
        # alien chunks are skipped per the SMF spec
        pos = body_end

    length_beats = 0
    if flat:
        # checked on Python ints, so the int64 array below cannot overflow
        last_tick = max(flat[2::4])
        length_beats = -(-last_tick // division)  # ceil
        if length_beats > MAX_BEATS:
            raise MidiParseError(
                f"last note ends at tick {last_tick}, beat {length_beats}, "
                f"beyond the {MAX_BEATS}-beat limit"
            )
    notes = np.array(flat, dtype=np.int64).reshape(-1, 4)
    notes = notes[np.argsort(notes[:, 1], kind="stable")]  # ties keep track order
    return MidiPiece(notes, BeatGrid(division, length_beats), unclosed)


MAX_VARLEN = (1 << 28) - 1  # largest value a 4-byte variable-length quantity holds


def _write_varlen(value: int) -> bytes:
    if not 0 <= value <= MAX_VARLEN:
        raise ValueError(f"variable-length quantity {value} is outside 0..{MAX_VARLEN}")
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def write_smf(
    notes: np.ndarray | Sequence[Sequence[int]],
    ticks_per_beat: int,
    *,
    velocity: int = 80,
    tempo_us_per_beat: int = 500_000,
) -> bytes:
    """Serialize (pitch, onset, offset, channel) note rows as a single-track SMF format 0 file.

    Messages are emitted in (tick, off-before-on, channel, pitch) order so the
    byte stream is deterministic. All note-ons carry the same velocity; the
    pipeline does not model dynamics. ValueError is raised for a row with
    pitch outside 0..127, channel outside 0..15 or offset <= onset, for a
    gap of more than MAX_VARLEN ticks between consecutive messages, because
    parse_midi reads delta times of at most 4 bytes, and for a ticks_per_beat
    outside 1..0x7FFF (0x8000 marks SMPTE time) or a tempo outside 1..0xFFFFFF.
    """
    if not 1 <= ticks_per_beat <= 0x7FFF:
        raise ValueError(f"ticks_per_beat {ticks_per_beat} outside 1..0x7FFF")
    if not 1 <= tempo_us_per_beat <= 0xFFFFFF:
        raise ValueError(f"tempo_us_per_beat {tempo_us_per_beat} outside 1..0xFFFFFF")
    if not 1 <= velocity <= 127:
        raise ValueError(f"velocity {velocity} outside 1..127")
    notes = np.asarray(notes, dtype=np.int64).reshape(-1, 4)
    pitch, onset, offset, channel = notes.T
    bad = (pitch < 0) | (pitch > 127) | (channel < 0) | (channel > 15) | (offset <= onset)
    if bad.any():
        row = notes[bad.argmax()].tolist()
        raise ValueError(f"note row {row}: needs pitch 0..127, channel 0..15, offset > onset")
    is_on = np.repeat([1, 0], len(notes))
    tick, channel, pitch = np.concatenate((onset, offset)), np.tile(channel, 2), np.tile(pitch, 2)
    order = np.lexsort((pitch, channel, is_on, tick))
    messages = np.stack((0x80 | is_on << 4 | channel, pitch, is_on * velocity), axis=1)
    raw = messages[order].astype(np.uint8).tobytes()  # 3 bytes per message

    body = bytearray(b"\x00\xff\x51\x03" + struct.pack(">I", tempo_us_per_beat)[1:])
    for i, delta in enumerate(np.diff(tick[order], prepend=0).tolist()):
        body += _write_varlen(delta)
        body += raw[3 * i : 3 * i + 3]
    body += b"\x00\xff\x2f\x00"

    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, ticks_per_beat)
    track = b"MTrk" + struct.pack(">I", len(body)) + bytes(body)
    return header + track
