"""Harmonic analyses over a trained space.

Three experiments: cosine distances from a tonic triad to its functional
relatives, key-to-key similarity of transposed-piece centroids, and angles
between chord-pair difference vectors across keys. All matrices use the
circle-of-fifths label order and serialize to labeled CSV.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .embedding import EmbeddingSpace, cosine_distance, pair_vector_angle
from .slicer import Slice

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
    mode = tonic.quality
    tonic_form = tonic.to_slice().form
    if tonic_form not in space:
        raise KeyError(f"tonic slice {tonic_form} is not in the vocabulary")
    tonic_vec = space.vector(space.id_of(tonic_form))
    profile: dict[str, float | None] = {}
    for role in roles:
        chord_form = realize_role(role, tonic.root, mode).to_slice().form
        if chord_form not in space:
            profile[role] = None
            continue
        profile[role] = cosine_distance(tonic_vec, space.vector(space.id_of(chord_form)))
    return profile


def transpose_piece(slices: Iterable[Slice], semitones: int) -> list[Slice]:
    """Shift every pitch class by semitones (mod 12); length preserved."""
    return [s.transpose(semitones) for s in slices]


def piece_centroid(space: EmbeddingSpace, slices: Sequence[Slice]) -> tuple[np.ndarray | None, int]:
    """Mean of the in-vocabulary slice vectors; (None, 0) if none are."""
    rows = [space.id_of(s.form) for s in slices if s.form in space]
    if not rows:
        return None, 0
    return space.vectors[rows].mean(axis=0), len(rows)


@dataclass
class SimilarityMatrix:
    """Square labeled matrix of distances or angles, CSV-serializable."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    values: np.ndarray
    units: str = "distance"  # or "degrees"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValueError("matrix shape does not match label counts")

    def save_csv(self, path: str) -> None:
        """Labeled CSV with 6-significant-digit values.

        Angle matrices carry a leading "# units: degrees" comment line.
        Reloading and re-saving reproduces the file byte-for-byte.
        """
        with open(path, "w", encoding="ascii", newline="") as fh:
            if self.units == "degrees":
                fh.write("# units: degrees\r\n")
            writer = csv.writer(fh)
            writer.writerow([""] + list(self.col_labels))
            for label, row in zip(self.row_labels, self.values):
                writer.writerow([label] + [_format_value(v) for v in row])

    @classmethod
    def load_csv(cls, path: str) -> "SimilarityMatrix":
        units = "distance"
        with open(path, "r", encoding="ascii", newline="") as fh:
            first = fh.readline()
            if first.startswith("#"):
                if "units:" in first:
                    units = first.split("units:")[1].strip()
            else:
                fh.seek(0)
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[0] != "":
                raise ValueError(f"{path}: not a labeled matrix CSV")
            col_labels = tuple(header[1:])
            row_labels = []
            rows = []
            for line in reader:
                if not line:
                    continue
                row_labels.append(line[0])
                rows.append([float(v) if v else math.nan for v in line[1:]])
        return cls(tuple(row_labels), col_labels, np.array(rows), units)


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
    roots = [PC_OF_NAME[name] for name in CIRCLE_OF_FIFTHS]
    # row s of shifted_rows: the space row of distinct slice s transposed by
    # 0..11 semitones, -1 out of vocabulary. Gathering a piece's rows from it
    # gives piece_centroid(space, transpose_piece(...)) its rows, in order.
    index: dict[Slice, int] = {}
    pieces_ids = [
        np.array([index.setdefault(s, len(index)) for s in slices], dtype=np.intp)
        for slices, _ in pieces
    ]
    row_of = {form: row for row, form in enumerate(space.forms)}
    shifted_rows = np.array(
        [[row_of.get(s.transpose(k).form, -1) for k in range(12)] for s in index],
        dtype=np.intp,
    ).reshape(-1, 12)
    total = np.zeros((12, 12), dtype=np.float64)
    i, j = np.triu_indices(12, 1)
    used = 0
    for idx, (ids, (_, piece_root)) in enumerate(zip(pieces_ids, pieces)):
        centroids = []
        for target in roots:
            rows = shifted_rows[ids, (target - piece_root) % 12]
            rows = rows[rows >= 0]
            if not len(rows):
                break
            centroids.append(space.vectors[rows].mean(axis=0))
        if len(centroids) < 12:
            warnings.warn(
                f"piece {idx}: a transposition has no in-vocabulary slices; "
                "piece excluded from the key-similarity average"
            )
            continue
        centroids = np.stack(centroids)
        # a running sum: one addition per element and piece, in piece order
        dist = cosine_distance(centroids[i], centroids[j])
        total[i, j] += dist
        total[j, i] += dist
        used += 1
    if used == 0:
        raise ValueError("every piece was excluded; cannot build key matrix")
    values = total / used
    np.fill_diagonal(values, 0.0)
    return SimilarityMatrix(CIRCLE_OF_FIFTHS, CIRCLE_OF_FIFTHS, values, "distance")


def analogy_angle_matrix(
    space: EmbeddingSpace, role_pair: tuple[str, str], mode: str
) -> SimilarityMatrix:
    """Angles between a role-pair's difference vectors across key pairs.

    Entry (i, j) is the angle in degrees between (vec(role2) - vec(role1))
    realized in key_i and the same difference realized in key_j. Keys whose
    realized chords are missing from the vocabulary (or coincide, leaving a
    zero difference) produce NaN entries, flagged by a warning.
    """
    role_a, role_b = role_pair
    diffs: list[tuple[int, int] | None] = []
    for name in CIRCLE_OF_FIFTHS:
        root = PC_OF_NAME[name]
        form_a = realize_role(role_a, root, mode).to_slice().form
        form_b = realize_role(role_b, root, mode).to_slice().form
        if form_a not in space or form_b not in space or form_a == form_b:
            warnings.warn(f"key {name}: {role_a}-{role_b} pair not measurable")
            diffs.append(None)
            continue
        diffs.append((space.id_of(form_a), space.id_of(form_b)))
    values = np.full((12, 12), math.nan)
    for i in range(12):
        if diffs[i] is None:
            continue
        values[i, i] = 0.0
        for j in range(i + 1, 12):
            if diffs[j] is None:
                continue
            a1, b1 = diffs[i]
            a2, b2 = diffs[j]
            angle = pair_vector_angle(space, a1, b1, a2, b2)
            values[i, j] = angle
            values[j, i] = angle
    return SimilarityMatrix(CIRCLE_OF_FIFTHS, CIRCLE_OF_FIFTHS, values, "degrees")


def circle_distance(root_a: int, root_b: int) -> int:
    """Steps apart on the circle of fifths, 0..6."""
    pos = {PC_OF_NAME[name]: i for i, name in enumerate(CIRCLE_OF_FIFTHS)}
    delta = abs(pos[root_a % 12] - pos[root_b % 12])
    return min(delta, 12 - delta)
