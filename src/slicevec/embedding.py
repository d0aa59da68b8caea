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
from typing import Sequence

import numpy as np

from .slicer import N_MASKS, UNK_FORM, Slice, Vocabulary, read_cache, write_lines
from .trainer import EmbeddingMatrix

EMBEDDING_MAGIC = "SLICEVEC"
FORMAT_VERSION = "v1"

# the most values a ranking or key-matrix temporary holds at once (8 MB of float64)
GATHER_FLOATS = 1 << 20


class EmbeddingSpace:
    """Immutable (forms, vectors) pairing with id lookups both ways, and tables: each row's
    mask (UNK's is N_MASKS), row_of each mask (size if absent) and the rows by_form order."""

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
        masks = [N_MASKS if form == UNK_FORM else Slice.from_form(form) for form in forms]
        self._forms = tuple(forms)
        self._index = {form: i for i, form in enumerate(self._forms)}
        if len(self._index) != len(self._forms):
            raise ValueError("duplicate forms in embedding space")
        self.masks, self.row_of = np.array(masks, np.intp), np.full(N_MASKS + 1, len(forms))
        self.row_of[self.masks] = np.arange(len(forms))
        self.by_form = np.argsort(np.array(self._forms, dtype=str), kind="stable")
        for table in (vectors, self.masks, self.row_of, self.by_form):
            table.flags.writeable = False
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


def nearest_rows(space: EmbeddingSpace, queries, n: int, exclude_self=True, exclude=()):
    """(ids, distances) of the n tokens closest to each query row, ascending; n is capped
    at the candidates, every row not in exclude. Ties go to canonical-form order (the
    candidates stand in form order; the sort is stable). A row short of candidates ends
    at distance inf. Queries go a block at a time, so that a temporary holds about
    GATHER_FLOATS values (or one query's, if more)."""
    queries = np.asarray(queries, dtype=np.intp)
    cands = space.by_form[~np.isin(space.by_form, exclude)]
    k = min(n, len(cands))
    ids, dists = np.empty((len(queries), k), dtype=np.intp), np.empty((len(queries), k))
    block = max(1, GATHER_FLOATS // max(1, len(cands) * space.dims))
    for start in range(0, len(queries), block):
        q = queries[start : start + block, None]
        dist = cosine_distance(space.vectors[q], space.vectors[cands])
        if exclude_self:
            dist[cands == q] = np.inf
        order = np.argsort(dist, axis=-1, kind="stable")[:, :k]
        ids[start : start + block] = cands[order]
        dists[start : start + block] = np.take_along_axis(dist, order, -1)
    return ids, dists


def nearest(space: EmbeddingSpace, query: int, n: int) -> list[tuple[int, float]]:
    """The n tokens other than the query and UNK closest to it by cosine distance, ascending.

    Exhaustive scan over the space; ties are broken by canonical-form
    lexicographic order. Asking for more tokens than remain after the
    exclusions returns all of them.
    """
    if not 0 <= query < space.size:
        raise KeyError(f"token id {query} out of range")
    if n < 1:
        raise ValueError("n must be >= 1")
    ids, dists = nearest_rows(space, [query], n, exclude=space.row_of[N_MASKS:])
    return [(i, d) for i, d in zip(ids[0].tolist(), dists[0].tolist()) if d < math.inf]


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
    write_lines(path, lines)


def load_embedding(path: str) -> EmbeddingSpace:
    _, (size, dims), lines = read_cache(path, EMBEDDING_MAGIC, (FORMAT_VERSION,), 2)
    forms, rows = [], []
    for i, line in enumerate(lines):
        parts = line.split()
        if len(parts) != dims + 1:
            raise ValueError(f"{path}: bad vector line for token {i}")
        forms.append(parts[0])
        try:
            rows.append(np.fromiter(map(float, parts[1:]), np.float64, dims))
        except ValueError:
            raise ValueError(f"{path}: bad vector line for token {i}") from None
    try:
        return EmbeddingSpace(forms, np.reshape(rows, (size, dims)))
    except ValueError as exc:  # a bad or duplicate form, a non-finite value
        raise ValueError(f"{path}: {exc}") from None
