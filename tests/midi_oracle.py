"""Reference SMF reader: one NoteEvent per note, one method call per message.

This is the object-per-event parser that slicevec.midi's one-pass reader
replaced, kept as the oracle that the reader is tested against. It differs
from its earlier form in one rule only: a channel message with a data byte
of 0x80 or more is refused, as the reader refuses it.

Beside it: ``write_smf_reference``, the per-message writer that
slicevec.midi's array writer replaced, with its ``write_varlen``;
``sounding_pitches``, the per-beat scan that slicing is tested against, with
the ``beat_span`` it scans; and ``note_array``, which turns NoteEvents into
the (n, 4) notes array that MidiPiece, write_smf and emit_midi take.
"""

from __future__ import annotations

import struct
from typing import Iterable

import numpy as np

from slicevec.midi import (
    MAX_BEATS,
    MAX_VARLEN,
    PERCUSSION_CHANNEL,
    BeatGrid,
    MidiParseError,
    NoteEvent,
    _read_varlen,
)

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


def _parse_track(data: bytes, pos: int, end: int, collector: _NoteCollector) -> None:
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
            for at in range(pos, pos + nbytes):
                if data[at] >= 0x80:
                    raise MidiParseError(f"status byte where a data byte belongs at byte {at}")
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


def parse_midi_reference(data: bytes) -> tuple[list[NoteEvent], BeatGrid, int]:
    """(events ordered by onset, grid, unclosed note count), or MidiParseError."""
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
    return events, BeatGrid(division, length_beats), unclosed


def write_varlen(value: int) -> bytes:
    """The variable-length quantity of value, 1 to 4 bytes, most significant group first."""
    if not 0 <= value <= MAX_VARLEN:
        raise ValueError(f"variable-length quantity {value} is outside 0..{MAX_VARLEN}")
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def write_smf_reference(notes, ticks_per_beat: int) -> bytes:
    """write_smf's bytes, one message at a time, every note-on at velocity 80 and the
    tempo 500,000 us a beat; the range checks are write_smf's job."""
    notes = np.asarray(notes, dtype=np.int64).reshape(-1, 4)
    pitch, onset, offset, channel = notes.T
    is_on = np.repeat([1, 0], len(notes))
    tick, channel, pitch = np.concatenate((onset, offset)), np.tile(channel, 2), np.tile(pitch, 2)
    order = np.lexsort((pitch, channel, is_on, tick))
    messages = np.stack((0x80 | is_on << 4 | channel, pitch, is_on * 80), axis=1)
    raw = messages[order].astype(np.uint8).tobytes()  # 3 bytes per message

    body = bytearray(b"\x00\xff\x51\x03" + struct.pack(">I", 500_000)[1:])
    for i, delta in enumerate(np.diff(tick[order], prepend=0).tolist()):
        while delta > MAX_VARLEN:
            body += write_varlen(MAX_VARLEN) + b"\xff\x01\x00"
            delta -= MAX_VARLEN
        body += write_varlen(delta)
        body += raw[3 * i : 3 * i + 3]
    body += b"\x00\xff\x2f\x00"

    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, ticks_per_beat)
    return header + b"MTrk" + struct.pack(">I", len(body)) + bytes(body)


def note_array(events: Iterable[NoteEvent]) -> np.ndarray:
    """(pitch, onset_ticks, offset_ticks, channel) rows of the events, in their order."""
    rows = [(e.pitch, e.onset_ticks, e.offset_ticks, e.channel) for e in events]
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def beat_span(grid: BeatGrid, beat: int) -> tuple[int, int]:
    """Beat b covers ticks [b * ticks_per_beat, (b+1) * ticks_per_beat)."""
    start = beat * grid.ticks_per_beat
    return start, start + grid.ticks_per_beat


def sounding_pitches(events: list[NoteEvent], grid: BeatGrid, beat: int) -> set[int]:
    """Pitches whose [onset, offset) interval intersects the beat's ticks.

    A held note counts in every beat it overlaps; a note whose offset lands
    exactly on a beat boundary does not sound in the following beat.
    """
    if not 0 <= beat < grid.piece_length_beats:
        raise IndexError(
            f"beat {beat} out of range 0..{grid.piece_length_beats - 1}"
        )
    start, end = beat_span(grid, beat)
    return {e.pitch for e in events if e.onset_ticks < end and e.offset_ticks > start}
