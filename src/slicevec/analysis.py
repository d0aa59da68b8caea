"""Harmonic analyses over a trained space.

Three experiments: cosine distances from a tonic triad to its functional
relatives, key-to-key similarity of transposed-piece centroids, and angles
between chord-pair difference vectors across keys. All matrices use the
circle-of-fifths label order and serialize to labeled CSV.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embedding import GATHER_FLOATS, EmbeddingSpace, cosine_distance, pair_vector_angle
from .slicer import N_MASKS, Slice, write_lines

# circle-of-fifths order: successive entries are a perfect fifth apart
CIRCLE_OF_FIFTHS = ("C", "G", "D", "A", "E", "B", "F#", "Db", "Ab", "Eb", "Bb", "F")
PC_OF_NAME = {
    "C": 0, "G": 7, "D": 2, "A": 9, "E": 4, "B": 11,
    "F#": 6, "Db": 1, "Ab": 8, "Eb": 3, "Bb": 10, "F": 5,
}

MAJOR = "major"
MINOR = "minor"

_QUALITY_INTERVALS = {MAJOR: (0, 4, 7), MINOR: (0, 3, 7)}

# role -> (semitones above the key root, triad quality), per key mode
ROLE_TABLE = {
    MAJOR: {
        "I": (0, MAJOR),
        "V": (7, MAJOR),
        "IV": (5, MAJOR),
        "vi": (9, MINOR),
        "IIIb": (3, MAJOR),
        "IIb": (1, MAJOR),
        "v": (7, MINOR),
    },
    MINOR: {
        "i": (0, MINOR),
        "v": (7, MINOR),
    },
}
MAJOR_ROLES = ("I", "V", "IV", "vi", "IIIb", "IIb", "v")
MINOR_ROLES = ("i", "v")


@dataclass(frozen=True)
class ChordSpec:
    """A named triad: root pitch class plus quality."""

    root: int
    quality: str

    def __post_init__(self):
        if not 0 <= self.root <= 11:
            raise ValueError(f"root {self.root} outside 0..11")
        if self.quality not in _QUALITY_INTERVALS:
            raise ValueError(f"quality must be major or minor, not {self.quality!r}")

    def pitch_classes(self) -> frozenset[int]:
        return frozenset((self.root + iv) % 12 for iv in _QUALITY_INTERVALS[self.quality])

    def to_slice(self) -> Slice:
        return Slice(tuple(sorted(self.pitch_classes())))


def realize_role(role: str, key_root: int, mode: str) -> ChordSpec:
    """The triad a functional role denotes in the given key."""
    try:
        interval, quality = ROLE_TABLE[mode][role]
    except KeyError:
        raise ValueError(f"role {role!r} is not defined for {mode} keys") from None
    return ChordSpec((key_root + interval) % 12, quality)


def chord_distance_profile(
    space: EmbeddingSpace, tonic: ChordSpec, roles: Sequence[str]
) -> dict[str, float | None]:
    """Cosine distance from the tonic triad's slice to each role's slice.

    The tonic slice must be in vocabulary; a missing role slice yields None
    for that role rather than an error.
    """
    chords = [tonic] + [realize_role(role, tonic.root, tonic.quality) for role in roles]
    tonic_row, *rows = space.row_of[[chord.to_slice() for chord in chords]].tolist()
    if tonic_row == space.size:  # the row of an out-of-vocabulary mask
        raise KeyError(f"tonic slice {tonic.to_slice().form} is not in the vocabulary")
    found = [row for row in rows if row < space.size]
    dists = iter(cosine_distance(space.vectors[tonic_row], space.vectors[found]).tolist())
    return {role: next(dists) if row < space.size else None for role, row in zip(roles, rows)}


@dataclass
class SimilarityMatrix:
    """Square matrix of distances or angles, labels naming rows and columns; CSV-serializable."""

    labels: tuple[str, ...]
    values: np.ndarray
    units: str = "distance"  # or "degrees"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.labels), len(self.labels)):
            raise ValueError("matrix shape does not match label count")

    def save_csv(self, path: str) -> None:
        """Labeled CSV, 6 significant digits; angle matrices lead with "# units: degrees"."""
        lines = ["# units: degrees"] if self.units == "degrees" else []
        lines.append(",".join(["", *self.labels]))
        for label, row in zip(self.labels, self.values):
            lines.append(",".join([label] + [_format_value(v) for v in row]))
        write_lines(path, lines, "\r\n")


def _format_value(v: float) -> str:
    if math.isnan(v):
        return ""
    return f"{v:.6g}"


def key_similarity_matrix(
    space: EmbeddingSpace,
    pieces: Sequence[tuple[Sequence[Slice], int]],
    mode: str,
) -> SimilarityMatrix:
    """Average centroid distance between the 12 transposed piece versions.

    pieces: (slice sequence, key root pitch class) in the given mode. Each
    piece is transposed onto all 12 circle-of-fifths roots; entry (i, j) is
    the cosine distance between the key_i and key_j centroids, averaged
    over pieces. A piece whose transposition loses every slice to UNK is
    excluded entirely, with a warning.
    """
    if not pieces:
        raise ValueError(f"no {mode} pieces to analyze")
    roots = np.array([PC_OF_NAME[name] for name in CIRCLE_OF_FIFTHS])
    zero = space.size  # the row of an out-of-vocabulary mask: the zero row past the vectors
    # row s of shifted_rows: mask s rotated by 0..11 semitones, as space rows
    k, m = np.arange(12), np.arange(N_MASKS)[:, None]
    shifted_rows = space.row_of[(m << k | m >> (12 - k)) & 0xFFF]
    # -0.0, not 0.0: x + -0.0 == x for every x, so a padded sum keeps its bits
    padded = np.vstack([space.vectors, np.full((1, space.dims), -0.0)])
    block = max(1, GATHER_FLOATS // (12 * space.dims))
    total = np.zeros((12, 12), dtype=np.float64)
    i, j = np.triu_indices(12, 1)
    used = 0
    for idx, (slices, piece_root) in enumerate(pieces):
        # column t: each beat's row transposed onto roots[t]
        rows = shifted_rows[np.asarray(slices, dtype=np.intp)][:, (roots - piece_root) % 12]
        counts = (rows != zero).sum(axis=0)
        if not counts.all():
            warnings.warn(
                f"piece {idx}: a transposition has no in-vocabulary slices; "
                "piece excluded from the key-similarity average"
            )
            continue
        # one running sum per transposition in beat order, as the mean of its
        # in-vocabulary rows takes it; each block carries the sum so far in
        sums = padded[rows[:block]].sum(axis=0)
        for start in range(block, len(rows), block):
            part = padded[rows[start : start + block]]
            part[0] += sums
            sums = part.sum(axis=0)
        centroids = sums / counts[:, None]
        # a running sum: one addition per element and piece, in piece order
        dist = cosine_distance(centroids[i], centroids[j])
        total[i, j] += dist
        total[j, i] += dist
        used += 1
    if used == 0:
        raise ValueError("every piece was excluded; cannot build key matrix")
    values = total / used
    np.fill_diagonal(values, 0.0)
    return SimilarityMatrix(CIRCLE_OF_FIFTHS, values, "distance")


def analogy_angle_matrix(
    space: EmbeddingSpace, role_pair: tuple[str, str], mode: str
) -> SimilarityMatrix:
    """Angles between a role-pair's difference vectors across key pairs.

    Entry (i, j) is the angle in degrees between (vec(role2) - vec(role1))
    realized in key_i and the same difference realized in key_j. Keys whose
    realized chords are missing from the vocabulary (or coincide, leaving a
    zero difference) produce NaN entries, flagged by a warning.
    """
    rows = space.row_of[
        [[realize_role(role, PC_OF_NAME[name], mode).to_slice() for role in role_pair]
         for name in CIRCLE_OF_FIFTHS]
    ]
    measurable = (rows < space.size).all(axis=1) & (rows[:, 0] != rows[:, 1])
    for name in np.array(CIRCLE_OF_FIFTHS)[~measurable]:
        warnings.warn(f"key {name}: {role_pair[0]}-{role_pair[1]} pair not measurable")
    keys = np.flatnonzero(measurable)
    values = np.full((12, 12), math.nan)
    values[keys, keys] = 0.0
    for i, j in itertools.combinations(keys.tolist(), 2):
        values[i, j] = values[j, i] = pair_vector_angle(space, *rows[i], *rows[j])
    return SimilarityMatrix(CIRCLE_OF_FIFTHS, values, "degrees")
