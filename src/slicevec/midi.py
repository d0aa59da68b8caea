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

PERCUSSION_CHANNEL = 9

# Longest piece parse_midi accepts, in beats: about 1,000 times the longest
# piece the pipeline is built for. Slicing allocates per beat, so a few bytes
# of delta time must not be able to ask for gigabytes.
MAX_BEATS = 1 << 18

# data-byte counts for channel messages, by upper status nibble
_CHANNEL_DATA_BYTES = {
    0x80: 2,  # note off
    0x90: 2,  # note on
    0xA0: 2,  # poly aftertouch
    0xB0: 2,  # control change
    0xC0: 1,  # program change
    0xD0: 1,  # channel aftertouch
    0xE0: 2,  # pitch bend
}


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


@dataclass
class MidiPiece:
    events: list[NoteEvent]
    grid: BeatGrid
    unclosed_notes: int = 0  # note-ons force-closed at end of track


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


def _parse_track(
    data: bytes, pos: int, end: int, collector: "_NoteCollector"
) -> None:
    """Parse MTrk events in data[pos:end] into the collector."""
    tick = 0
    running_status = None
    while pos < end:
        delta, pos = _read_varlen(data, pos)
        tick += delta
        if pos >= end:
            raise MidiParseError(f"truncated event at byte {pos}")
        byte = data[pos]
        if byte >= 0x80:
            status = byte
            pos += 1
        else:
            if running_status is None:
                raise MidiParseError(f"data byte {byte:#x} with no running status at byte {pos}")
            status = running_status

        if status == 0xFF:  # meta event
            running_status = None
            if pos >= end:
                raise MidiParseError(f"truncated meta event at byte {pos}")
            meta_type = data[pos]
            pos += 1
            length, pos = _read_varlen(data, pos)
            if pos + length > end:
                raise MidiParseError(f"meta event overruns track at byte {pos}")
            pos += length
            if meta_type == 0x2F:  # end of track
                collector.close_track(tick)
                return
        elif status in (0xF0, 0xF7):  # sysex
            running_status = None
            length, pos = _read_varlen(data, pos)
            if pos + length > end:
                raise MidiParseError(f"sysex event overruns track at byte {pos}")
            pos += length
        elif 0x80 <= status < 0xF0:
            running_status = status
            kind = status & 0xF0
            channel = status & 0x0F
            nbytes = _CHANNEL_DATA_BYTES[kind]
            if pos + nbytes > end:
                raise MidiParseError(f"truncated channel event at byte {pos}")
            d1 = data[pos]
            d2 = data[pos + 1] if nbytes == 2 else 0
            pos += nbytes
            if kind == 0x90 and d2 > 0:
                collector.note_on(channel, d1, tick)
            elif kind == 0x80 or (kind == 0x90 and d2 == 0):
                collector.note_off(channel, d1, tick)
        else:
            raise MidiParseError(f"unsupported status byte {status:#x} at byte {pos - 1}")
    # Track data exhausted without an end-of-track meta; close at current tick.
    collector.close_track(tick)


class _NoteCollector:
    """Matches note-ons to note-offs (earliest-on first) for one track."""

    def __init__(self):
        self.open: dict[tuple[int, int], list[int]] = {}
        self.events: list[NoteEvent] = []
        self.unclosed = 0

    def note_on(self, channel: int, pitch: int, tick: int) -> None:
        if channel == PERCUSSION_CHANNEL:
            return
        self.open.setdefault((channel, pitch), []).append(tick)

    def note_off(self, channel: int, pitch: int, tick: int) -> None:
        if channel == PERCUSSION_CHANNEL:
            return
        onsets = self.open.get((channel, pitch))
        if not onsets:
            return  # stray note-off; ignore
        onset = onsets.pop(0)
        if tick > onset:
            self.events.append(NoteEvent(pitch, onset, tick, channel))
        # zero-length notes (off at the onset tick) are dropped

    def close_track(self, end_tick: int) -> None:
        for (channel, pitch), onsets in sorted(self.open.items()):
            for onset in onsets:
                offset = end_tick if end_tick > onset else onset + 1
                self.events.append(NoteEvent(pitch, onset, offset, channel))
                self.unclosed += 1
        self.open.clear()


def parse_midi(data: bytes) -> MidiPiece:
    """Parse SMF format 0/1 bytes into note events plus a beat grid.

    Every note-on with a matching note-off (or note-on at velocity 0) becomes
    one NoteEvent; percussion-channel events are discarded; a note-on left
    open at end of track is closed there and counted in ``unclosed_notes``.
    The grid's ticks_per_beat is the header PPQ value. A piece whose last
    note ends after MAX_BEATS beats is refused.
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
    events: list[NoteEvent] = []
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
            collector = _NoteCollector()
            _parse_track(data, body_start, body_end, collector)
            events.extend(collector.events)
            unclosed += collector.unclosed
            tracks_seen += 1
        # alien chunks are skipped per the SMF spec
        pos = body_end

    events.sort(key=lambda e: e.onset_ticks)  # stable: ties keep track order
    if events:
        last_tick = max(e.offset_ticks for e in events)
        length_beats = -(-last_tick // division)  # ceil
        if length_beats > MAX_BEATS:
            raise MidiParseError(
                f"last note ends at tick {last_tick}, beat {length_beats}, "
                f"beyond the {MAX_BEATS}-beat limit"
            )
    else:
        length_beats = 0
    return MidiPiece(events, BeatGrid(division, length_beats), unclosed)


def sounding_pitches(events: list[NoteEvent], grid: BeatGrid, beat: int) -> set[int]:
    """Pitches whose [onset, offset) interval intersects the beat's ticks.

    A held note counts in every beat it overlaps; a note whose offset lands
    exactly on a beat boundary does not sound in the following beat.
    """
    if not 0 <= beat < grid.piece_length_beats:
        raise IndexError(
            f"beat {beat} out of range 0..{grid.piece_length_beats - 1}"
        )
    start, end = grid.beat_span(beat)
    return {e.pitch for e in events if e.onset_ticks < end and e.offset_ticks > start}


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
    events: list[NoteEvent],
    ticks_per_beat: int,
    *,
    velocity: int = 80,
    tempo_us_per_beat: int = 500_000,
) -> bytes:
    """Serialize note events as a single-track SMF format 0 file.

    Events are emitted in (tick, off-before-on, channel, pitch) order so the
    byte stream is deterministic. All note-ons carry the same velocity; the
    pipeline does not model dynamics. A gap of more than MAX_VARLEN ticks
    between consecutive messages raises ValueError, because parse_midi reads
    delta times of at most 4 bytes.
    """
    if ticks_per_beat <= 0:
        raise ValueError("ticks_per_beat must be positive")
    # (tick, is_on, channel, pitch)
    messages = []
    for e in events:
        messages.append((e.onset_ticks, 1, e.channel, e.pitch))
        messages.append((e.offset_ticks, 0, e.channel, e.pitch))
    messages.sort()

    body = bytearray()
    body += b"\x00" + bytes([0xFF, 0x51, 0x03]) + struct.pack(">I", tempo_us_per_beat)[1:]
    tick = 0
    for when, is_on, channel, pitch in messages:
        body += _write_varlen(when - tick)
        tick = when
        status = (0x90 if is_on else 0x80) | channel
        body += bytes([status, pitch, velocity if is_on else 0])
    body += b"\x00" + bytes([0xFF, 0x2F, 0x00])

    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, ticks_per_beat)
    track = b"MTrk" + struct.pack(">I", len(body)) + bytes(body)
    return header + track
