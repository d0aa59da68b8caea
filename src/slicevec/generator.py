"""Slice substitution: rewrite pieces beat-by-beat via embedding proximity.

For each in-vocabulary slice, the top-n nearest vocabulary slices vote on
pitch classes (each class weighted by its share of all class occurrences in
the top-n set). Candidates are scored by their mean pitch-class weight, a
candidate with the input's pitch-class count is preferred when one exists,
and the winner replaces the input slice. Out-of-vocabulary slices pass
through unchanged.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingSpace, nearest_rows
from .midi import MidiPiece, write_smf
from .slicer import N_MASKS, SLICES, Slice, beat_masks, write_lines

RENDER_BASE_PITCH = 60  # substituted beats render in octave 4


@dataclass(frozen=True)
class GeneratorConfig:
    top_n: int = 5
    exclude_identity: bool = True

    def __post_init__(self):
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")


@dataclass(frozen=True)
class SubstitutionCandidate:
    slice: Slice
    distance: float  # cosine distance to the input slice
    score: float  # mean pitch-class weight, in [0, 1]
    same_count: bool  # has the input's pitch-class count


@dataclass(frozen=True)
class Substitution:
    """One beat's outcome: the chosen slice plus its scored top-n list."""

    original: Slice
    result: Slice
    distance: float | None  # None when the input passed through
    candidates: tuple[SubstitutionCandidate, ...]


def pitch_class_weights(candidates: Sequence[Slice]) -> list[float]:
    """Each pitch class's share of all class occurrences in the slices."""
    counts = [0] * 12
    for s in candidates:
        for pc in s.pitch_classes:
            counts[pc] += 1
    total = sum(counts)
    if total == 0:
        return [0.0] * 12
    return [c / total for c in counts]


def _substitutions(masks: np.ndarray, space: EmbeddingSpace, config: GeneratorConfig):
    """Apply the substitution rule to each slice of a mask array, all ranked in one
    nearest_rows pass. Out-of-vocabulary slices pass through. UNK and the rest slice are
    never candidates; an empty candidate pool also passes the input through, with a
    warning. Warnings come in mask order."""
    rows = space.row_of[masks]
    known, unk_and_rest = rows[rows < space.size], space.row_of[[N_MASKS, 0]]
    ids, dists = nearest_rows(space, known, config.top_n, config.exclude_identity, unk_and_rest)
    ranked = zip(ids.tolist(), dists.tolist())
    mask_of, out = space.masks.tolist(), []
    for s, row in zip(map(SLICES.__getitem__, masks.tolist()), rows.tolist()):
        top = [] if row == space.size else [
            (SLICES[mask_of[i]], d) for i, d in zip(*next(ranked)) if d < np.inf
        ]
        if not top:
            if row < space.size:
                warnings.warn(f"no substitution candidates for {s.form}; passing through")
            out.append(Substitution(s, s, None, ()))
            continue
        if len(top) < config.top_n:
            warnings.warn(
                f"only {len(top)} candidates available for {s.form} "
                f"(top_n={config.top_n}); using all of them"
            )
        weights = pitch_class_weights([cand for cand, _ in top])
        candidates = [SubstitutionCandidate(
            cand, dist, sum(weights[pc] for pc in cand.pitch_classes) / len(cand.pitch_classes),
            len(cand.pitch_classes) == len(s.pitch_classes),
        ) for cand, dist in top]
        same = [c for c in candidates if c.same_count]
        best = min(same or candidates, key=lambda c: (-c.score, c.distance, c.slice.form))
        out.append(Substitution(s, best.slice, best.distance, tuple(candidates)))
    return out


def substitute_slice(s: Slice, space: EmbeddingSpace, config: GeneratorConfig) -> Substitution:
    """Apply the substitution rule to one slice (see _substitutions)."""
    return _substitutions(np.array([s], dtype=np.intp), space, config)[0]


@dataclass(frozen=True)
class BeatDiagnostics:
    """A rewrite's record: each beat's original and substitute mask, and beat b's
    Substitution subs[which[b]], one Substitution per distinct slice."""

    original: np.ndarray
    substitute: np.ndarray
    subs: list[Substitution]
    which: np.ndarray
    top_n: int


def rewrite_piece(
    slices: Sequence[Slice], space: EmbeddingSpace, config: GeneratorConfig
) -> tuple[list[Slice], BeatDiagnostics]:
    """Element-wise substitution of slices (or a mask array); returns new slices plus per-beat
    diagnostics. Each distinct slice is substituted once, in order of first appearance."""
    masks = np.asarray(slices, dtype=np.intp).reshape(-1)
    _, first, inverse = np.unique(masks, return_index=True, return_inverse=True)
    order = np.argsort(first)
    subs = _substitutions(masks[first[order]], space, config)
    which = np.argsort(order)[inverse]
    substitute = np.array([sub.result for sub in subs], dtype=np.intp)[which]
    diagnostics = BeatDiagnostics(masks, substitute, subs, which, config.top_n)
    return [SLICES[m] for m in substitute.tolist()], diagnostics


def save_diagnostics(path: str, diagnostics: BeatDiagnostics) -> None:
    """One CSV line per beat; each distinct slice's fields after the beat are built once."""
    tails = [
        f"{sub.original.form},{sub.result.form},"
        f"{'' if sub.distance is None else repr(sub.distance)},{diagnostics.top_n}"
        for sub in diagnostics.subs
    ]
    lines = [f"{beat},{tails[i]}" for beat, i in enumerate(diagnostics.which.tolist())]
    write_lines(path, ["beat,original,substitute,cosine_distance,top_n", *lines], "\r\n")


def emit_midi(piece: MidiPiece, substitutes: Sequence[Slice] | np.ndarray, originals=None) -> bytes:
    """Render the substituted piece back to SMF bytes (originals: its beat masks, if known).

    Beats whose substitute differs from the original slice render their
    pitch classes as simultaneous one-beat notes in octave 4; all other
    beats keep the piece's original notes. Held notes crossing a substituted
    beat are clipped out of it and keep sounding in their unchanged beats.
    """
    n_beats = piece.grid.piece_length_beats
    if len(substitutes) != n_beats:
        raise ValueError(
            f"{len(substitutes)} substitutes for a {n_beats}-beat piece"
        )
    tpb = piece.grid.ticks_per_beat
    subs = np.asarray(substitutes, dtype=np.intp)
    changed = subs != (beat_masks([piece])[0] if originals is None else originals)
    # maximal runs of unchanged beats as tick intervals; beats from n_beats on are unchanged
    step = np.diff(np.concatenate(([1], changed, [0])))
    starts = np.flatnonzero(step == -1) * tpb
    ends = np.append(np.flatnonzero(step == 1) * tpb, np.iinfo(np.int64).max)
    # note i overlaps runs first[i] .. first[i] + counts[i] - 1; one row per overlap
    onset, offset = piece.notes[:, 1], piece.notes[:, 2]
    first = np.searchsorted(ends, onset, side="right")
    counts = np.maximum(np.searchsorted(starts, offset, side="left") - first, 0)
    run = np.arange(counts.sum()) + np.repeat(first - np.cumsum(counts) + counts, counts)
    rows = np.repeat(piece.notes, counts, axis=0)
    rows[:, 1] = np.maximum(rows[:, 1], starts[run])
    rows[:, 2] = np.minimum(rows[:, 2], ends[run])
    # the changed beats' pitch classes in (beat, pitch class) order, from their bit matrix
    beat, pc = np.nonzero(subs[changed, None] >> np.arange(12) & 1)
    beat = np.flatnonzero(changed)[beat] * tpb
    rendered = np.stack((RENDER_BASE_PITCH + pc, beat, beat + tpb, 0 * pc), axis=1)
    rows = np.concatenate((rows[rows[:, 2] > rows[:, 1]], rendered.astype(np.int64)))
    return write_smf(rows, tpb)
