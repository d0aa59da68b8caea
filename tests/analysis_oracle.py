"""Reference helpers for the analysis tests: per-slice transposition, the
per-piece centroid, and circle-of-fifths distance.

The key-similarity matrix in slicevec.analysis works on mask arrays and
running sums; these state the same ideas one slice and one piece at a time.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from slicevec.analysis import CIRCLE_OF_FIFTHS, PC_OF_NAME
from slicevec.embedding import EmbeddingSpace
from slicevec.slicer import Slice


def transpose(s: Slice, semitones: int) -> Slice:
    """The slice with every pitch class shifted by semitones (mod 12)."""
    return Slice(sorted((pc + semitones) % 12 for pc in s.pitch_classes))


def transpose_piece(slices: Iterable[Slice], semitones: int) -> list[Slice]:
    """Shift every pitch class by semitones (mod 12); length preserved."""
    return [transpose(s, semitones) for s in slices]


def piece_centroid(space: EmbeddingSpace, slices: Sequence[Slice]) -> tuple[np.ndarray | None, int]:
    """Mean of the in-vocabulary slice vectors; (None, 0) if none are."""
    rows = [space.id_of(s.form) for s in slices if s.form in space]
    if not rows:
        return None, 0
    return space.vectors[rows].mean(axis=0), len(rows)


def circle_distance(root_a: int, root_b: int) -> int:
    """Steps apart on the circle of fifths, 0..6."""
    pos = {PC_OF_NAME[name]: i for i, name in enumerate(CIRCLE_OF_FIFTHS)}
    delta = abs(pos[root_a % 12] - pos[root_b % 12])
    return min(delta, 12 - delta)
