"""Pitch-class slices, the frequency-ranked vocabulary, and corpus encoding.

A slice is the set of pitch classes sounding during one beat; it plays the
role a word plays in a text model. Slices have a canonical text form (pitch
classes joined by "."), the empty slice is the rest "R", and slices below
the vocabulary frequency cutoff fold into the catch-all token "UNK".
A slice is its 12-bit mask (bit pc set when class pc sounds), one shared
Slice per mask in SLICES, so a list of slices is already a mask array.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .midi import MidiPiece

UNK_FORM = "UNK"
REST_FORM = "R"
N_MASKS = 1 << 12


class Slice(int):
    """An immutable set of pitch classes; its int value is its mask."""

    __slots__ = ()

    def __new__(cls, pitch_classes: Iterable[int]) -> "Slice":
        pcs = tuple(pitch_classes)
        for pc in pcs:
            if not 0 <= pc <= 11:
                raise ValueError(f"pitch class {pc} outside 0..11")
        if any(pcs[i] >= pcs[i + 1] for i in range(len(pcs) - 1)):
            raise ValueError(f"pitch classes {pcs} not strictly ascending")
        return SLICES[sum(1 << pc for pc in pcs)]

    def __getnewargs__(self):  # copy and pickle rebuild through __new__
        return (self.pitch_classes,)

    @property
    def pitch_classes(self) -> tuple[int, ...]:
        return PITCH_CLASSES[self]

    @property
    def form(self) -> str:
        """Canonical text form: "0.4.7" for a C major triad, "R" when empty."""
        return FORMS[self]

    @classmethod
    def from_form(cls, form: str) -> "Slice":
        """The slice of a canonical form; "07", "+4" or "4.0" is refused."""
        try:
            return SLICE_OF_FORM[form]
        except KeyError:
            raise ValueError(f"bad slice form {form!r}") from None

    def __str__(self) -> str:
        return self.form

    def __repr__(self) -> str:
        return f"Slice(pitch_classes={self.pitch_classes})"


def _mask_tables() -> tuple[tuple, tuple]:
    """Each mask's pitch classes and form; masks 2**pc.. are masks 0.. with pc added on top."""
    pcs, forms = [()], [REST_FORM]
    for pc in range(12):
        pcs += [p + (pc,) for p in pcs]
        forms += [str(pc)] + [f"{f}.{pc}" for f in forms[1:]]
    return tuple(pcs), tuple(forms)


PITCH_CLASSES, FORMS = _mask_tables()
SLICES = tuple(map(int.__new__, repeat(Slice, N_MASKS), range(N_MASKS)))
SLICE_OF_FORM = dict(zip(FORMS, SLICES))
_FORM_OF_MASK = np.array(FORMS, dtype=object)  # forms of a mask array in one gather


def make_slice(pitches: Iterable[int]) -> Slice:
    """Collapse MIDI pitches to their octave-free pitch-class set."""
    return SLICES[sum({1 << p % 12 for p in pitches})]


def parse_forms(line: str, path: str) -> list[Slice]:
    """The slices of a line of space-separated canonical forms read from path."""
    try:
        return [SLICE_OF_FORM[form] for form in line.split()]
    except KeyError as exc:
        raise ValueError(f"{path}: bad slice form {exc.args[0]!r}") from None


def beat_masks(pieces: Sequence[MidiPiece]) -> list[np.ndarray]:
    """Each piece's slice masks, one per beat in beat order, from one pass over all pieces.

    Beat b holds the pitch classes of the notes whose [onset, offset)
    intersects its ticks, so a note ending on a beat boundary is not in the
    next beat. A note sounds from beat onset // tpb up to, not including,
    beat (offset - 1) // tpb + 1; a per-pitch-class difference array over
    those bounds, summed along the beats, gives every beat's classes at once.
    The pieces lie side by side in the array, each with one more column than
    it has beats, which absorbs the notes that start or end past its grid.
    """
    beats = np.array([p.grid.piece_length_beats for p in pieces], dtype=np.int64)
    base = np.cumsum(beats + 1) - beats - 1  # each piece's first column
    width = int(beats.sum()) + len(pieces)
    sizes = [len(p.notes) for p in pieces]
    notes = np.concatenate([p.notes for p in pieces] + [np.zeros((0, 4), np.int64)])
    n = np.repeat(beats, sizes)
    tpb = np.repeat(np.array([p.grid.ticks_per_beat for p in pieces], dtype=np.int64), sizes)
    at = notes[:, 0] % 12 * width + np.repeat(base, sizes)
    first = at + np.clip(notes[:, 1] // tpb, 0, n)
    stop = at + np.clip((notes[:, 2] - 1) // tpb + 1, 0, n)
    diff = np.bincount(first, minlength=12 * width) - np.bincount(stop, minlength=12 * width)
    masks = (1 << np.arange(12)) @ (np.cumsum(diff.reshape(12, width), axis=1) > 0)
    return [masks[b : b + k] for b, k in zip(base.tolist(), beats.tolist())]


def slices_from_piece(piece: MidiPiece) -> list[Slice]:
    """One slice per beat of the piece, in beat order (see beat_masks)."""
    return [SLICES[m] for m in beat_masks([piece])[0].tolist()]


class Vocabulary:
    """Frequency-ranked slice <-> token-id mapping with an UNK cutoff.

    Token 0 is always UNK. Content tokens get ids 1..size-1 in descending
    frequency order; frequency ties are broken by canonical-form
    lexicographic order so rebuilding from the same stream is deterministic.
    """

    def __init__(self, ranked: Sequence[tuple[Slice, int]], unk_count: int):
        """ranked: (slice, count) pairs already in final id order (1, 2, ...)."""
        self._content: list[Slice] = []  # index i holds the slice for token i+1
        self._counts: list[int] = [unk_count]
        self._id_of = np.zeros(N_MASKS, dtype=np.int32)  # token id per mask, 0 (UNK) when absent
        for s, count in ranked:
            if self._id_of[s]:
                raise ValueError(f"duplicate slice {s.form} in vocabulary")
            self._content.append(s)
            self._id_of[s] = len(self._content)
            self._counts.append(count)

    @property
    def size(self) -> int:
        return len(self._content) + 1

    @property
    def unk_id(self) -> int:
        return 0

    def slice_of(self, token: int) -> Slice:
        """The slice for a content token id. UNK has no slice."""
        if token == 0:
            raise KeyError("UNK does not map back to a slice")
        if not 1 <= token < self.size:
            raise KeyError(f"token id {token} out of range")
        return self._content[token - 1]

    def form_of(self, token: int) -> str:
        if token == 0:
            return UNK_FORM
        return self.slice_of(token).form

    def count_of(self, token: int) -> int:
        if not 0 <= token < self.size:
            raise KeyError(f"token id {token} out of range")
        return self._counts[token]

    def counts_array(self) -> np.ndarray:
        return np.asarray(self._counts, dtype=np.int64)

    def items(self) -> Iterator[tuple[int, str, int]]:
        """(id, form, count) triples in id order, UNK first."""
        for token in range(self.size):
            yield token, self.form_of(token), self._counts[token]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self._content == other._content and self._counts == other._counts

    def __repr__(self) -> str:
        return f"Vocabulary(size={self.size})"


def build_vocabulary(slices: Iterable[Slice] | np.ndarray, max_size: int) -> Vocabulary:
    """Rank distinct slices by frequency and keep the top max_size - 1.

    slices is the slice stream, or already its count per mask (an N_MASKS
    long int array, as np.bincount of a mask array gives). Everything below
    the cutoff aggregates into UNK's count. Ties at the cutoff are broken by
    canonical-form lexicographic order.
    """
    if max_size < 2:
        raise ValueError("max_size must be at least 2 (one content token plus UNK)")
    if not isinstance(slices, np.ndarray):
        slices = np.bincount(np.fromiter(slices, np.intp), minlength=N_MASKS)
    counts = slices.tolist()
    present = [m for m in range(N_MASKS) if counts[m]]
    ranked = sorted(present, key=lambda m: (-counts[m], FORMS[m]))
    if not ranked:
        raise ValueError("cannot build a vocabulary from an empty slice stream")
    kept = [(SLICES[m], counts[m]) for m in ranked[: max_size - 1]]
    unk_count = sum(counts[m] for m in ranked[max_size - 1 :])
    return Vocabulary(kept, unk_count)


@dataclass
class EncodedCorpus:
    """Token-id sequences per piece. Windows never cross piece boundaries."""

    pieces: list[np.ndarray]  # int32 arrays
    total_tokens: int

    @classmethod
    def from_ids(cls, pieces: Iterable[Sequence[int]]) -> "EncodedCorpus":
        arrays = [np.asarray(p, dtype=np.int32) for p in pieces]
        return cls(arrays, int(sum(len(a) for a in arrays)))

    def trainable_pieces(self) -> list[np.ndarray]:
        """Pieces long enough to yield at least one (center, context) pair."""
        return [p for p in self.pieces if len(p) >= 2]


def encode_corpus(pieces: Iterable[Sequence[Slice]], vocab: Vocabulary) -> EncodedCorpus:
    """Replace each slice by its token id (or unk_id), keeping lengths: one gather per piece."""
    return EncodedCorpus.from_ids([vocab._id_of[np.asarray(p, dtype=np.intp)] for p in pieces])


# ---------------------------------------------------------------------------
# cache files

CORPUS_MAGIC = "SLICECORPUS"
VOCAB_MAGIC = "SLICEVOCAB"
FORMAT_VERSION = "v1"
CORPUS_VERSION = "v2"  # each piece line leads with the sha256 of its file's bytes
_DIGEST = re.compile("[0-9a-f]{64}")
_INTEGER = re.compile("0|-?[1-9][0-9]*")  # as str(int) spells it: no "+", "05" or "0_5"


def _integer(text: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not a canonical integer: {text!r}")
    return int(text)


def read_cache(path: str, magic: str, versions, n_counts: int) -> tuple[str, list[int], list[str]]:
    """A "<magic> <version> <count>..." cache, read whole: its version (one of versions),
    its counts, and the lines the first count counts, each without its newline.

    A last line cut before its newline, a short file and any content after
    the counted lines are refused.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            *lines, tail = fh.read().split("\n")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not ASCII text") from None
    if tail:
        raise ValueError(f"{path}: last line cut before its newline")
    header = lines[0].split() if lines else []
    if len(header) != 2 + n_counts or header[0] != magic:
        raise ValueError(f"{path}: not a {magic} file")
    if header[1] not in versions:
        raise ValueError(f"{path}: unsupported version {header[1]}")
    try:
        counts = [_integer(c) for c in header[2:]]
    except ValueError:
        raise ValueError(f"{path}: bad count in header") from None
    if min(counts) < 0:
        raise ValueError(f"{path}: negative count in header")
    n_lines, found = counts[0], len(lines) - 1
    if found < n_lines:
        raise ValueError(f"{path}: file ends after {found} of its {n_lines} counted lines")
    if found > n_lines:
        raise ValueError(f"{path}: content after the {n_lines} counted lines")
    return header[1], counts, lines[1:]


def write_lines(path: str, lines: Iterable[str], end: str = "\n") -> None:
    """Write lines as ASCII text, each followed by end: LF for the caches and
    chords.csv, CRLF for loss.csv, keys.csv, analogy.csv and the diagnostics."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("".join(f"{line}{end}" for line in lines))


def save_corpus(path: str, pieces: Sequence[Sequence[Slice]], digests: Sequence[str] = ()) -> None:
    """Text cache: header line, then one line of slice forms per piece (its slices or
    their mask array).

    Given digests (the sha256 hex digest of each piece's file), the cache is
    v2 and each line leads with its piece's digest; without, it is v1.
    """
    lines = [f"{CORPUS_MAGIC} {CORPUS_VERSION if digests else FORMAT_VERSION} {len(pieces)}"]
    for i, piece in enumerate(pieces):
        lead = [digests[i]] if digests else []
        lines.append(" ".join(lead + _FORM_OF_MASK[np.asarray(piece, dtype=np.intp)].tolist()))
    write_lines(path, lines)


def read_corpus_lines(path: str) -> list[tuple[str | None, str]]:
    """(file digest, slice forms as one string) per cached piece; None for a v1 cache's digest."""
    version, _, lines = read_cache(path, CORPUS_MAGIC, (FORMAT_VERSION, CORPUS_VERSION), 1)
    if version == FORMAT_VERSION:
        return [(None, line) for line in lines]
    pieces = []
    for i, line in enumerate(lines):
        digest, _, forms = line.partition(" ")
        if not _DIGEST.fullmatch(digest):
            raise ValueError(f"{path}: piece {i} does not lead with a sha256 digest")
        pieces.append((digest, forms))
    return pieces


def load_corpus(path: str) -> list[list[Slice]]:
    """The cached pieces; every occurrence of a form is the same Slice."""
    return [parse_forms(forms, path) for _, forms in read_corpus_lines(path)]


def save_vocabulary(path: str, vocab: Vocabulary) -> None:
    """Text cache: header line, then "<id> <form> <count>" per token."""
    lines = [f"{VOCAB_MAGIC} {FORMAT_VERSION} {vocab.size}"]
    for token, form, count in vocab.items():
        lines.append(f"{token} {form} {count}")
    write_lines(path, lines)


def load_vocabulary(path: str) -> Vocabulary:
    _, _, lines = read_cache(path, VOCAB_MAGIC, (FORMAT_VERSION,), 1)
    ranked: list[tuple[Slice, int]] = []
    unk_count = None
    for expected, line in enumerate(lines):
        try:
            token, form, count = line.split()
            token, count = _integer(token), _integer(count)
        except ValueError:  # not three fields, or an id or count that is no integer
            raise ValueError(f"{path}: bad vocabulary line for id {expected}") from None
        if token != expected:
            raise ValueError(f"{path}: ids not contiguous at {token}")
        if count < 0:
            raise ValueError(f"{path}: negative count for id {token}")
        if count >= 1 << 63:  # counts_array holds int64
            raise ValueError(f"{path}: count out of range for id {token}")
        if token == 0:
            if form != UNK_FORM:
                raise ValueError(f"{path}: token 0 must be {UNK_FORM}, got {form}")
            unk_count = count
        else:
            ranked.append((parse_forms(form, path)[0], count))
    if unk_count is None:
        raise ValueError(f"{path}: vocabulary has no {UNK_FORM} entry")
    try:
        return Vocabulary(ranked, unk_count)
    except ValueError as exc:  # a duplicate form
        raise ValueError(f"{path}: {exc}") from None
