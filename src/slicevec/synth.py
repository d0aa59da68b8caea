"""Synthetic diatonic chord-progression corpus.

Desk-scale stand-in for a real MIDI corpus: pieces are bar-per-harmony
chord progressions drawn from a first-order scale-degree transition table
with a strong pull toward I, IV and V, rendered as one-beat (or held)
block chords in octave 4, with occasional dyads, passing tones, rests and
rare added-tone/suspension ornaments for slice variety. The ornaments are
individually infrequent, so the slice-form distribution carries a long
tail of low-count forms alongside the common triads, the way rare words
trail common ones in a text corpus. Every piece is written as a standard
MIDI file whose filename carries its key, e.g. ``Fs_minor_02.mid`` ("s"
stands in for "#" to keep names filesystem-safe).
"""

from __future__ import annotations

import os
from bisect import bisect_right
from functools import lru_cache
from typing import Sequence

import numpy as np

from .analysis import CIRCLE_OF_FIFTHS, MAJOR, MINOR, PC_OF_NAME
from .midi import MAX_BEATS, BeatGrid, write_smf

TICKS_PER_BEAT = 480
BEATS_PER_BAR = 4
BASE_PITCH = 60  # octave 4

_MODE_CODE = {MAJOR: 0, MINOR: 1}

# scale intervals from the key root (natural minor)
_SCALE = {
    MAJOR: (0, 2, 4, 5, 7, 9, 11),
    MINOR: (0, 2, 3, 5, 7, 8, 10),
}

# first-order transitions between scale degrees 1..7, biased toward the
# primary functions so that I, IV and V triads dominate the corpus
_TRANSITIONS = {
    1: ((4, 0.30), (5, 0.30), (6, 0.15), (2, 0.15), (3, 0.05), (7, 0.05)),
    2: ((5, 0.60), (7, 0.15), (4, 0.15), (6, 0.10)),
    3: ((6, 0.40), (4, 0.30), (2, 0.20), (5, 0.10)),
    4: ((5, 0.45), (1, 0.30), (2, 0.15), (7, 0.10)),
    5: ((1, 0.60), (6, 0.25), (4, 0.10), (3, 0.05)),
    6: ((2, 0.35), (4, 0.30), (5, 0.25), (3, 0.10)),
    7: ((1, 0.70), (5, 0.20), (6, 0.10)),
}


# ornament figures as scale steps above the chord root: added tones,
# suspensions and open dyads; every figure keeps the root so each beat
# still states its harmony
_ORNAMENTS = (
    (0, 1, 2, 4),  # added second
    (0, 2, 3, 4),  # added fourth
    (0, 2, 4, 5),  # added sixth
    (0, 2, 4, 6),  # seventh chord
    (0, 3, 4),  # sus4
    (0, 1, 4),  # sus2
    (0, 4),  # open fifth
    (0, 1),  # root + second
    (0, 5),  # root + sixth
    (0, 6),  # root + seventh
)


def key_filename(root_name: str, mode: str, index: int) -> str:
    return f"{root_name.replace('#', 's')}_{mode}_{index:02d}.mid"


def parse_key_filename(name: str) -> tuple[int, str]:
    """(key root pitch class, mode) recovered from a synth filename."""
    base = os.path.basename(name)
    stem = base[:-4] if base.endswith(".mid") else base
    parts = stem.split("_")
    if len(parts) != 3 or parts[1] not in (MAJOR, MINOR):
        raise ValueError(f"{name}: not a synth corpus filename")
    root_name = parts[0].replace("s", "#")
    if root_name not in PC_OF_NAME:
        raise ValueError(f"{name}: unknown key name {parts[0]!r}")
    return PC_OF_NAME[root_name], parts[1]


@lru_cache(maxsize=None)
def _degree_triad(degree: int, root_pc: int, mode: str) -> tuple[int, ...]:
    """Pitch classes of the triad on a scale degree (stacked scale thirds)."""
    scale = _SCALE[mode]
    idx = degree - 1
    return tuple(
        (root_pc + scale[(idx + step) % 7]) % 12 for step in (0, 2, 4)
    )


def _choice_cdf(row):
    """(next degrees, the cdf Generator.choice(next, p=probs) searches, computed as numpy
    does): one rng.random() searched on its right side picks what choice picks."""
    nxt, probs = zip(*row)
    cdf = np.array(probs).cumsum()
    cdf /= cdf[-1]
    return nxt, cdf.tolist()


_NEXT_CDF = {degree: _choice_cdf(row) for degree, row in _TRANSITIONS.items()}


def _progression(n_bars: int, rng: np.random.Generator) -> list[int]:
    """A degree per bar, starting on 1 and cadencing 5 -> 1."""
    degrees = [1]
    for _ in range(n_bars - 1):
        nxt, cdf = _NEXT_CDF[degrees[-1]]
        degrees.append(nxt[bisect_right(cdf, rng.random())])
    if n_bars >= 2:
        degrees[-2] = 5
    degrees[-1] = 1
    return degrees


def generate_piece(
    root_pc: int, mode: str, n_bars: int, rng: np.random.Generator
) -> list[tuple[int, ...]]:
    """Per-beat pitch-class tuples for one piece.

    Each bar holds one harmony; individual beats vary the texture: full
    triad (the common case), a dyad, the bare root, the triad plus a scale
    passing tone, a rare added-tone/suspension ornament, or a rest.
    """
    if n_bars < 1:
        raise ValueError("n_bars must be >= 1")
    scale = _SCALE[mode]
    beats: list[tuple[int, ...]] = []
    for bar, degree in enumerate(_progression(n_bars, rng)):
        triad = _degree_triad(degree, root_pc, mode)
        if bar == n_bars - 1:
            # hold the final tonic chord; trailing rests would be silent in
            # MIDI and silently shorten the piece on re-parse
            beats.extend([triad] * BEATS_PER_BAR)
            continue
        for beat in range(BEATS_PER_BAR):
            if beat == 0:
                beats.append(triad)  # downbeats always state the harmony
                continue
            choice = rng.random()
            if choice < 0.52:
                beats.append(triad)
            elif choice < 0.66:
                beats.append(triad[:2])  # root + third dyad
            elif choice < 0.75:
                beats.append(triad[:1])
            elif choice < 0.87:
                # passing tone: the scale step above the chord root
                passing = (root_pc + scale[degree % 7]) % 12
                beats.append(tuple(dict.fromkeys(triad + (passing,))))
            elif choice < 0.96:
                # rare ornament; spread over many variants so each
                # individual form stays low-count
                steps = _ORNAMENTS[int(rng.integers(len(_ORNAMENTS)))]
                idx = degree - 1
                beats.append(
                    tuple((root_pc + scale[(idx + s) % 7]) % 12 for s in steps)
                )
            else:
                beats.append(())
    return beats


def piece_notes(beats: Sequence[tuple[int, ...]]) -> tuple[np.ndarray, BeatGrid]:
    """Render per-beat pitch-class tuples (0..11) as octave-4 note rows, merging holds.

    Consecutive equal tuples become one held note per pitch, so parsing the
    file exercises notes that span beats; (0, 4, 7) then (4, 0, 7) are two
    runs. Returns the (n, 4) int64 notes array, as MidiPiece holds it, and the grid.
    """
    ids: dict[tuple[int, ...], int] = {}
    beat_ids = np.array([ids.setdefault(beat, len(ids)) for beat in beats], dtype=np.int64)
    masks = np.array([sum(1 << pc for pc in set(beat)) for beat in ids], dtype=np.int64)
    starts = np.flatnonzero(np.diff(beat_ids, prepend=-1))  # where the tuple changes
    ends = np.append(starts[1:], len(beat_ids))
    run, pc = np.nonzero((masks[beat_ids[starts]][:, None] >> np.arange(12)) & 1)
    notes = np.stack((BASE_PITCH + pc, starts[run], ends[run], 0 * pc), axis=1)
    return notes * [1, TICKS_PER_BEAT, TICKS_PER_BEAT, 1], BeatGrid(TICKS_PER_BEAT, len(beats))


def piece_rng(seed: int, root_pc: int, mode: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, root_pc, _MODE_CODE[mode], index])


def synth_corpus(
    out_dir: str,
    keys: Sequence[str],
    modes: Sequence[str],
    pieces_per_key: int,
    n_bars: int,
    seed: int,
) -> list[str]:
    """Write the corpus MIDI files; returns the paths in generation order.

    Deterministic given the seed: every piece derives its own generator
    from (seed, key root, mode, piece index), so regenerating any subset
    reproduces identical files.
    """
    if not keys:
        raise ValueError("key list must not be empty")
    if not modes:
        raise ValueError("mode list must not be empty")
    if pieces_per_key < 1:
        raise ValueError("pieces_per_key must be >= 1")
    if seed < 0:  # piece_rng seeds numpy, which takes no negative seed
        raise ValueError(f"seed must be >= 0 for synth, not {seed}")
    n_beats = n_bars * BEATS_PER_BAR
    if n_beats > MAX_BEATS:  # parse_midi would refuse the files
        raise ValueError(f"{n_bars} bars are {n_beats} beats, beyond the {MAX_BEATS}-beat limit")
    for key in keys:
        if key not in PC_OF_NAME:
            raise ValueError(f"unknown key {key!r} (expected one of {CIRCLE_OF_FIFTHS})")
    for mode in modes:
        if mode not in (MAJOR, MINOR):
            raise ValueError(f"unknown mode {mode!r}")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for key in keys:
        root_pc = PC_OF_NAME[key]
        for mode in modes:
            for index in range(pieces_per_key):
                rng = piece_rng(seed, root_pc, mode, index)
                beats = generate_piece(root_pc, mode, n_bars, rng)
                notes, _ = piece_notes(beats)
                data = write_smf(notes, TICKS_PER_BEAT)
                path = os.path.join(out_dir, key_filename(key, mode, index))
                with open(path, "wb") as fh:
                    fh.write(data)
                paths.append(path)
    return paths
