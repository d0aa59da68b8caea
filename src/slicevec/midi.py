"""Standard MIDI File reading and writing.

Covers exactly what the slicing pipeline needs: SMF format 0 and 1, note
events on absolute tick times, and a beat grid taken from the file's PPQ
header (one beat = one quarter note). Channel 10 (index 9, percussion) is
discarded. Tempo and other meta events are skipped: slice boundaries are
metrical, so wall-clock time never enters the picture.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

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


# A delta-time of at most 4 bytes, then a status byte of a two-data-byte channel message
# (0x80-0xBF: note off/on, aftertouch, control change; 0xE0-0xEF: pitch bend) or, after
# the first event, running status, then the two data bytes. So inside a run the bytes
# below 0x80 come in exact triples: a delta's last byte, then the two data bytes.
_DELTA = rb"[\x80-\xff]{0,3}[\x00-\x7f]"
_RUN = re.compile(
    _DELTA + rb"[\x80-\xbf\xe0-\xef][\x00-\x7f]{2}"
    rb"(?:" + _DELTA + rb"[\x80-\xbf\xe0-\xef]?[\x00-\x7f]{2})*"
)

# Run bytes that read_pieces gathers before it decodes them at once: a few files share
# numpy's per-call cost, and a huge file is a chunk of its own size.
_CHUNK_BYTES = 1 << 15


def _walk_track(data: bytes, pos: int, end: int, track: int, runs: list) -> int:
    """Walk the MTrk events in data[pos:end]; return the ticks walked after its last run.

    Appends (start, stop, ticks walked before it, track) for each maximal run
    of two-data-byte channel events, as _RUN matches it. The walk itself
    steps over meta events, sysex, program change and channel pressure, and
    raises at the first malformed event. It stops at the end-of-track meta or
    where the data runs out.
    """
    ticks = 0
    running_status = None
    while pos < end:
        run = _RUN.match(data, pos, end)
        if run:
            runs.append((pos, run.end(), ticks, track))
            # only a malformed event can follow under the run's two-data-byte status,
            # and its error is the same whichever such status it is
            pos, ticks, running_status = run.end(), 0, 0x80
            continue
        delta, pos = _read_varlen(data, pos)
        ticks += delta
        if pos >= end:
            raise MidiParseError(f"truncated event at byte {pos}")
        status = data[pos]
        if status & 0x80:
            pos += 1
        elif running_status is None:
            raise MidiParseError(f"data byte {status:#x} with no running status at byte {pos}")
        else:
            status = running_status

        if status < 0xF0:  # channel message; a valid two-data-byte one is in a run
            running_status = status
            nbytes = 1 if 0xC0 <= status < 0xE0 else 2  # program change, channel aftertouch
            if pos + nbytes > end:
                raise MidiParseError(f"truncated channel event at byte {pos}")
            if (data[pos] | data[pos + nbytes - 1]) & 0x80:
                bad = pos if data[pos] & 0x80 else pos + 1
                raise MidiParseError(f"status byte where a data byte belongs at byte {bad}")
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
    return ticks


def _walk(data: bytes) -> tuple[int, list[int], list[tuple[int, int, int, int]]]:
    """Check an SMF file's header and chunks and walk its tracks: (ticks per beat, the
    ticks walked after each track's last run, every run as _walk_track appends it)."""
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
    tails: list[int] = []
    runs: list[tuple[int, int, int, int]] = []
    while len(tails) < ntrks:
        if pos + 8 > len(data):
            raise MidiParseError(f"expected track chunk at byte {pos}")
        chunk_id, chunk_len = struct.unpack_from(">4sI", data, pos)
        body_end = pos + 8 + chunk_len
        if body_end > len(data):
            raise MidiParseError(f"chunk overruns file at byte {pos}")
        if chunk_id == b"MTrk":
            tails.append(_walk_track(data, pos + 8, body_end, len(tails), runs))
        # alien chunks are skipped per the SMF spec
        pos = body_end
    return division, tails, runs


def _decode(chunk: list) -> list[MidiPiece | Exception | None]:
    """The piece of each (file bytes, its _walk) in chunk, or the walk where it is no tuple.

    Every run of the chunk is decoded at once: deltas from their continuation
    bytes, running status by a forward fill, ticks by a per-track cumsum.
    Notes are paired first-in, first-out per (track, channel, pitch).
    """
    parts, carries, run_track, tails, track_file = [], [], [], [], []
    for f, (data, walk) in enumerate(chunk):
        if not isinstance(walk, tuple):
            continue
        _, file_tails, runs = walk
        view = memoryview(data)
        for start, stop, carry, track in runs:
            parts.append(view[start:stop])
            carries.append(carry)
            run_track.append(len(tails) + track)
        tails += file_tails
        track_file += [f] * len(file_tails)
    buf = np.frombuffer(b"".join(parts), dtype=np.uint8)
    last, d1, d2 = np.flatnonzero(buf < 0x80).reshape(-1, 3).T.copy()  # one row per event
    n = len(last)

    start = np.concatenate(([0], d2[:-1] + 1))  # where each event's delta begins
    extra = last - start  # its continuation bytes, 0 to 3
    delta = buf[last].astype(np.int64)
    for k in (1, 2, 3):
        more = np.flatnonzero(extra >= k)
        delta[more] |= (buf[last[more] - k] & 0x7F).astype(np.int64) << 7 * k
    first = np.searchsorted(start, np.cumsum([0] + [len(p) for p in parts])[:-1])
    delta[first] += np.array(carries, dtype=np.int64)  # walked ticks go into the next run
    track = np.repeat(np.array(run_track, dtype=np.int64), np.diff(np.append(first, n)))
    ids = np.arange(len(tails))
    lo, hi = np.searchsorted(track, ids), np.searchsorted(track, ids, "right")
    before = np.concatenate(([0], np.cumsum(delta)))  # int64: deltas are below 2**28
    tick = before[1:] - before[lo][track]
    end_tick = before[hi] - before[lo] + np.array(tails, dtype=np.int64)

    stated = np.where(d1 - last == 2, np.arange(n), 0)  # each run's first event has a status
    status = buf[d1[np.maximum.accumulate(stated)] - 1].astype(np.int64)
    channel = status & 0x0F
    note = np.flatnonzero((status < 0xA0) & (channel != PERCUSSION_CHANNEL))
    key = track[note] << 11 | channel[note] << 7 | buf[d1[note]]
    # stable: each key's events stay in time order; on 16-bit keys numpy radix-sorts
    order = np.argsort(key.astype(np.min_scalar_type(len(tails) << 11)), kind="stable")
    note, key = note[order], key[order]
    on = (status[note] >= 0x90) & (buf[d2[note]] > 0)

    # per key, a note-off closes a note when the count of open ones, clamped at 0, is
    # above 0: c = s - min(0, running min of s), for s the running sum of +1 per
    # note-on and -1 per note-off. The k-th closing note-off closes the k-th note-on.
    new_key = np.diff(key, prepend=-1) != 0
    group_start = np.flatnonzero(new_key)
    group = np.cumsum(new_key) - 1
    step = np.where(on, 1, -1)
    s = np.cumsum(step)
    s -= (s - step)[group_start][group]
    apart = group * (2 * len(key) + 2)  # sinks each later key below every earlier one
    open_after = s - np.minimum(np.minimum.accumulate(s - apart) + apart, 0)
    open_before = np.concatenate(([0], open_after[:-1]))
    open_before[group_start] = 0
    on_at = np.flatnonzero(on)
    off_at = np.flatnonzero(~on & (open_before > 0))
    rank = np.cumsum(on) - on  # the note-ons before each event of its key
    rank -= rank[group_start][group]
    paired = rank[on_at] < np.bincount(group[off_at], minlength=len(group_start))[group[on_at]]
    onset, offset = tick[note[on_at[paired]]], tick[note[off_at]]
    kept = offset > onset  # a note-off at its note-on's tick drops the note
    # the notes still open close at the end of their track, in (channel, pitch) order
    left = on_at[~paired]
    left_onset, left_end = tick[note[left]], end_tick[key[left] >> 11]
    at = np.concatenate((off_at[kept], left))
    onset = np.concatenate((onset[kept], left_onset))
    offset = np.concatenate((offset[kept], np.where(left_end > left_onset, left_end, left_onset + 1)))
    # per track, the closed notes in note-off order, then the notes left open
    seq = np.concatenate((note[off_at[kept]], n + left))
    by_track = np.argsort(key[at] >> 11 << 1 + n.bit_length() | seq)
    at, onset, offset = at[by_track], onset[by_track], offset[by_track]
    notes = np.stack((key[at] & 0x7F, onset, offset, key[at] >> 7 & 0x0F), axis=1)
    track_file = np.array(track_file, dtype=np.int64)
    bounds = np.cumsum(np.bincount(track_file[key[at] >> 11], minlength=len(chunk))).tolist()
    unclosed = np.bincount(track_file[key[left] >> 11], minlength=len(chunk)).tolist()

    pieces: list[MidiPiece | Exception | None] = []
    for f, (_, walk) in enumerate(chunk):
        if not isinstance(walk, tuple):
            pieces.append(walk)
            continue
        division, file_notes, length_beats = walk[0], notes[bounds[f - 1] if f else 0 : bounds[f]], 0
        if len(file_notes):
            file_notes = file_notes[np.argsort(file_notes[:, 1], kind="stable")]  # by onset
            last_tick = int(file_notes[:, 2].max())
            length_beats = -(-last_tick // division)  # ceil
            if length_beats > MAX_BEATS:
                pieces.append(MidiParseError(
                    f"last note ends at tick {last_tick}, beat {length_beats}, "
                    f"beyond the {MAX_BEATS}-beat limit"
                ))
                continue
        pieces.append(MidiPiece(file_notes, BeatGrid(division, length_beats), unclosed[f]))
    return pieces


def read_pieces(datas: Iterable) -> Iterator[list[MidiPiece | Exception | None]]:
    """Parse SMF files a chunk at a time: for each chunk of consecutive items, a list of
    each bytes-like item's MidiPiece, as parse_midi gives it, or its MidiParseError, in
    input order. An item that is None or an exception comes back as it is, in its place.

    A chunk ends once its runs of channel events hold _CHUNK_BYTES bytes. A bad
    file never changes its neighbours' pieces.
    """
    chunk, size = [], 0
    for data in datas:
        walk = data
        if data is not None and not isinstance(data, Exception):
            try:
                walk = _walk(data)
                size += sum(stop - start for start, stop, _, _ in walk[2])
            except MidiParseError as exc:
                walk = exc
        chunk.append((data, walk))
        if size >= _CHUNK_BYTES:
            yield _decode(chunk)
            chunk, size = [], 0
    if chunk:
        yield _decode(chunk)


def parse_midi(data: bytes) -> MidiPiece:
    """Parse SMF format 0/1 bytes into notes plus a beat grid.

    Every note-on with a matching note-off (or note-on at velocity 0) becomes
    one note; a note-off ends the earliest open note-on of its channel and
    pitch, a note-off at its note-on's tick drops the note, and a stray one is
    ignored. Percussion-channel events are discarded. A note-on left open at
    end of track is closed there, lasting at least one tick, and counted in
    ``unclosed_notes``. A channel message with a data byte of 0x80 or more is
    refused. Notes are ordered by onset, ties in track order. The grid's
    ticks_per_beat is the header PPQ value. A piece whose last note ends after
    MAX_BEATS beats is refused.
    """
    (piece,) = next(read_pieces([data]))
    if isinstance(piece, MidiParseError):
        raise piece
    return piece


MAX_VARLEN = (1 << 28) - 1  # largest value a 4-byte variable-length quantity holds
_VARLEN_SHIFTS = np.array([21, 14, 7, 0])
# MAX_VARLEN ticks, then an empty text meta event
_FILLER = np.array([0xFF, 0xFF, 0xFF, 0x7F, 0xFF, 0x01, 0x00], dtype=np.uint8)
VELOCITY = 80  # of every note-on write_smf writes
TEMPO_US_PER_BEAT = 500_000  # 120 beats a minute


def write_smf(notes: np.ndarray | Sequence[Sequence[int]], ticks_per_beat: int) -> bytes:
    """Serialize (pitch, onset, offset, channel) note rows as a single-track SMF format 0 file.

    Messages are emitted in (tick, off-before-on, channel, pitch) order so the
    byte stream is deterministic. Every note-on carries VELOCITY and the tempo
    is TEMPO_US_PER_BEAT: the pipeline models neither dynamics nor tempo.
    ValueError is raised for a row with pitch outside 0..127, channel outside
    0..15, offset <= onset or onset < 0, and for a ticks_per_beat outside
    1..0x7FFF (0x8000 marks SMPTE time). parse_midi reads delta times of at
    most 4 bytes, so a gap of more than MAX_VARLEN ticks is split by an empty
    text event after every MAX_VARLEN ticks.
    """
    if not 1 <= ticks_per_beat <= 0x7FFF:
        raise ValueError(f"ticks_per_beat {ticks_per_beat} outside 1..0x7FFF")
    notes = np.asarray(notes, dtype=np.int64).reshape(-1, 4)
    pitch, onset, offset, channel = notes.T
    bad = (pitch < 0) | (pitch > 127) | (channel < 0) | (channel > 15) | (offset <= onset)
    if bad.any():
        row = notes[bad.argmax()].tolist()
        raise ValueError(f"note row {row}: needs pitch 0..127, channel 0..15, offset > onset")
    is_on = np.repeat([1, 0], len(notes))
    tick, channel, pitch = np.concatenate((onset, offset)), np.tile(channel, 2), np.tile(pitch, 2)
    order = np.lexsort((pitch, channel, is_on, tick))
    delta = np.diff(tick[order], prepend=0)  # ticks are sorted: only the first can be < 0
    if len(delta) and delta[0] < 0:
        raise ValueError(f"variable-length quantity {delta[0]} is outside 0..{MAX_VARLEN}")

    # an event is a 4-byte big-endian varlen delta less its leading zero groups, then 3
    # bytes; a message after a gap of more than MAX_VARLEN ticks follows `fill` fillers
    fill = np.maximum(delta - 1, 0) // MAX_VARLEN
    delta -= fill * MAX_VARLEN
    last = np.cumsum(fill + 1) - 1  # the event index of each message
    events = np.tile(_FILLER, (len(delta) + fill.sum(), 1))
    events[last, :4] = (delta[:, None] >> _VARLEN_SHIFTS) & 0x7F | [0x80, 0x80, 0x80, 0]
    events[last, 4:] = np.stack((0x80 | is_on << 4 | channel, pitch, is_on * VELOCITY), 1)[order]
    keep = np.ones(events.shape, dtype=bool)
    keep[last, :3] = delta[:, None] >= 1 << _VARLEN_SHIFTS[:3]
    track = b"\x00\xff\x51\x03" + struct.pack(">I", TEMPO_US_PER_BEAT)[1:]
    track += events[keep].tobytes() + b"\x00\xff\x2f\x00"
    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, ticks_per_beat)
    return header + b"MTrk" + struct.pack(">I", len(track)) + track
