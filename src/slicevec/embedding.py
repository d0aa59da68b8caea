"""The trained vector space: cosine geometry, neighbors, persistence.

An EmbeddingSpace is immutable: token forms (canonical slice strings plus
"UNK") paired row-for-row with the trained input vectors. Output vectors
are a training artifact and are not part of the space.

The text format round-trips bit-exactly: floats are written in shortest
round-trip decimal form, one token per line:

    SLICEVEC v1 <vocab_size> <dims>
    <form> <f_1> ... <f_dims>
"""

from __future__ import annotations

import math
import os
from typing import Sequence

import numpy as np

from .slicer import (
    UNK_FORM, Slice, Vocabulary, check_cache_end, read_cache_header, read_cache_line,
)
from .trainer import EmbeddingMatrix

EMBEDDING_MAGIC = "SLICEVEC"
FORMAT_VERSION = "v1"


class EmbeddingSpace:
    """Immutable (forms, vectors) pairing with id lookups both ways."""

    def __init__(self, forms: Sequence[str], vectors: np.ndarray):
        vectors = np.array(vectors, dtype=np.float64, copy=True)
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-D array")
        if len(forms) != vectors.shape[0]:
            raise ValueError(
                f"{len(forms)} forms but {vectors.shape[0]} vector rows"
            )
        if not np.isfinite(vectors).all():
            raise ValueError("vectors must be finite")
        for form in forms:
            if form != UNK_FORM:
                Slice.from_form(form)  # validates
        self._forms = tuple(forms)
        self._index = {form: i for i, form in enumerate(self._forms)}
        if len(self._index) != len(self._forms):
            raise ValueError("duplicate forms in embedding space")
        vectors.flags.writeable = False
        self._vectors = vectors

    @classmethod
    def from_training(cls, vocab: Vocabulary, emb: EmbeddingMatrix) -> "EmbeddingSpace":
        forms = [vocab.form_of(i) for i in range(vocab.size)]
        return cls(forms, emb.input_vectors)

    @property
    def size(self) -> int:
        return len(self._forms)

    @property
    def dims(self) -> int:
        return int(self._vectors.shape[1])

    @property
    def forms(self) -> tuple[str, ...]:
        return self._forms

    @property
    def vectors(self) -> np.ndarray:
        return self._vectors

    @property
    def unk_id(self) -> int | None:
        return self._index.get(UNK_FORM)

    def __contains__(self, form: str) -> bool:
        return form in self._index

    def id_of(self, form: str) -> int:
        try:
            return self._index[form]
        except KeyError:
            raise KeyError(f"form {form!r} not in embedding space") from None

    def form_of(self, token: int) -> str:
        return self._forms[token]

    def vector(self, token: int) -> np.ndarray:
        return self._vectors[token]


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Dot(a, b) / (|a| |b|) along the last axis, clamped into [-1, 1].

    Broadcasts as np.vecdot: two vectors give a float, rows one value per row.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    norm_a, norm_b = np.sqrt(np.vecdot(a, a)), np.sqrt(np.vecdot(b, b))
    if not (norm_a.all() and norm_b.all()):  # a zero row, or one whose norm underflows
        raise ValueError("cosine is undefined for a zero vector")
    sim = np.vecdot(a, b) / (norm_a * norm_b)
    sim = np.fmin(1.0, np.fmax(-1.0, sim))
    # equal or opposite rows get the exact limit: self-distances are literal zero
    sim = np.where((a == b).all(-1), 1.0, np.where((a == -b).all(-1), -1.0, sim))
    return float(sim) if sim.ndim == 0 else sim


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """1 - cosine_similarity, in [0, 2]."""
    return 1.0 - cosine_similarity(a, b)


def nearest(
    space: EmbeddingSpace,
    query: int,
    n: int,
    exclude_self: bool = True,
    exclude_unk: bool = True,
) -> list[tuple[int, float]]:
    """The n tokens closest to the query by cosine distance, ascending.

    Exhaustive scan over the space; ties are broken by canonical-form
    lexicographic order. Asking for more tokens than remain after the
    exclusions returns all of them.
    """
    if not 0 <= query < space.size:
        raise KeyError(f"token id {query} out of range")
    if n < 1:
        raise ValueError("n must be >= 1")
    keep = np.ones(space.size, dtype=bool)
    keep[query] = not exclude_self
    if exclude_unk and space.unk_id is not None:
        keep[space.unk_id] = False
    cands = np.flatnonzero(keep)
    dist = cosine_distance(space.vector(query), space.vectors[cands])
    order = np.lexsort((np.array(space.forms)[cands], dist))[:n]
    return list(zip(cands[order].tolist(), dist[order].tolist()))


def pair_vector_angle(space: EmbeddingSpace, a1: int, b1: int, a2: int, b2: int) -> float:
    """Angle in degrees between vec(b1)-vec(a1) and vec(b2)-vec(a2)."""
    v1 = space.vector(b1) - space.vector(a1)
    v2 = space.vector(b2) - space.vector(a2)
    if not v1.any() or not v2.any():
        raise ValueError("pair vector is zero; angle undefined")
    return math.degrees(math.acos(cosine_similarity(v1, v2)))


def save_embedding(path: str, space: EmbeddingSpace) -> None:
    lines = [f"{EMBEDDING_MAGIC} {FORMAT_VERSION} {space.size} {space.dims}"]
    for token in range(space.size):
        values = " ".join(repr(float(v)) for v in space.vector(token))
        lines.append(f"{space.form_of(token)} {values}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_embedding(path: str) -> EmbeddingSpace:
    with open(path, "r", encoding="ascii") as fh:
        size, dims = read_cache_header(fh, path, EMBEDDING_MAGIC, FORMAT_VERSION, 2)
        # every value on a vector line takes at least 2 bytes (itself and a
        # separator), so a header counting more cannot be this file's
        if 2 * size * (dims + 1) > os.fstat(fh.fileno()).st_size:
            raise ValueError(f"{path}: header counts {size} x {dims} exceed the file's size")
        forms = []
        vectors = np.empty((size, dims), dtype=np.float64)
        for i in range(size):
            parts = read_cache_line(fh, path).split()
            if len(parts) != dims + 1:
                raise ValueError(f"{path}: bad vector line for token {i}")
            forms.append(parts[0])
            vectors[i] = [float(v) for v in parts[1:]]
        check_cache_end(fh, path, size)
    return EmbeddingSpace(forms, vectors)
