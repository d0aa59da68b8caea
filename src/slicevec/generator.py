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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embedding import EmbeddingSpace, nearest
from .midi import MidiPiece, write_smf
from .slicer import REST_FORM, Slice, slices_from_piece, write_lines

RENDER_BASE_PITCH = 60  # substituted beats render in octave 4
RENDER_VELOCITY = 80


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


def substitute_slice(
    s: Slice, space: EmbeddingSpace, config: GeneratorConfig
) -> Substitution:
    """Apply the substitution rule to one slice.

    Out-of-vocabulary slices pass through. UNK and the rest slice are never
    candidates; an empty candidate pool also passes the input through, with
    a warning.
    """
    if s.form not in space:
        return Substitution(s, s, None, ())
    sid = space.id_of(s.form)
    ranking = nearest(
        space,
        sid,
        n=space.size,
        exclude_self=config.exclude_identity,
        exclude_unk=True,
    )
    pool = [
        (space.form_of(cand), dist)
        for cand, dist in ranking
        if space.form_of(cand) != REST_FORM
    ]
    if not pool:
        warnings.warn(f"no substitution candidates for {s.form}; passing through")
        return Substitution(s, s, None, ())
    if len(pool) < config.top_n:
        warnings.warn(
            f"only {len(pool)} candidates available for {s.form} "
            f"(top_n={config.top_n}); using all of them"
        )
    top = [(Slice.from_form(form), dist) for form, dist in pool[: config.top_n]]
    weights = pitch_class_weights([cand for cand, _ in top])
    n_input = len(s.pitch_classes)
    candidates = []
    for cand, dist in top:
        score = sum(weights[pc] for pc in cand.pitch_classes) / len(cand.pitch_classes)
        candidates.append(
            SubstitutionCandidate(cand, dist, score, len(cand.pitch_classes) == n_input)
        )
    same = [c for c in candidates if c.same_count]
    contenders = same if same else candidates
    best = min(contenders, key=lambda c: (-c.score, c.distance, c.slice.form))
    return Substitution(s, best.slice, best.distance, tuple(candidates))


@dataclass(frozen=True)
class BeatDiagnostic:
    beat: int
    original: str
    substitute: str
    cosine_distance: float | None
    top_n: int


def rewrite_piece(
    slices: Sequence[Slice], space: EmbeddingSpace, config: GeneratorConfig
) -> tuple[list[Slice], list[BeatDiagnostic]]:
    """Element-wise substitution; returns new slices plus per-beat diagnostics.

    substitute_slice is pure, so each distinct slice is substituted once.
    """
    out = []
    diagnostics = []
    substitution_of: dict[Slice, Substitution] = {}
    for beat, s in enumerate(slices):
        sub = substitution_of.get(s)
        if sub is None:
            sub = substitution_of[s] = substitute_slice(s, space, config)
        out.append(sub.result)
        diagnostics.append(
            BeatDiagnostic(beat, s.form, sub.result.form, sub.distance, config.top_n)
        )
    return out, diagnostics


def save_diagnostics(path: str, diagnostics: Sequence[BeatDiagnostic]) -> None:
    lines = ["beat,original,substitute,cosine_distance,top_n"]
    for d in diagnostics:
        dist = "" if d.cosine_distance is None else repr(d.cosine_distance)
        lines.append(f"{d.beat},{d.original},{d.substitute},{dist},{d.top_n}")
    write_lines(path, lines, "\r\n")


def emit_midi(piece: MidiPiece, substitutes: Sequence[Slice]) -> bytes:
    """Render the substituted piece back to SMF bytes.

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
    originals = slices_from_piece(piece)
    changed = np.asarray(substitutes, dtype=np.intp) != np.asarray(originals, dtype=np.intp)
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
    rendered = [
        (RENDER_BASE_PITCH + pc, b * tpb, (b + 1) * tpb, 0)
        for b in np.flatnonzero(changed).tolist()
        for pc in substitutes[b].pitch_classes
    ]
    rows = np.concatenate(
        (rows[rows[:, 2] > rows[:, 1]], np.array(rendered, dtype=np.int64).reshape(-1, 4))
    )
    return write_smf(rows, tpb, velocity=RENDER_VELOCITY)
