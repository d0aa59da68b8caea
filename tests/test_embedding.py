"""Vector space geometry and persistence round-trips."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from slicevec.embedding import (
    EmbeddingSpace,
    cosine_distance,
    cosine_similarity,
    load_embedding,
    nearest,
    pair_vector_angle,
    save_embedding,
)
from slicevec.rng import Rng
from slicevec.slicer import Slice, Vocabulary
from slicevec.trainer import EmbeddingMatrix


def _fsum_cosine(a, b):
    dot = math.fsum(float(x) * float(y) for x, y in zip(a, b))
    na = math.sqrt(math.fsum(float(x) * float(x) for x in a))
    nb = math.sqrt(math.fsum(float(y) * float(y) for y in b))
    return min(1.0, max(-1.0, dot / (na * nb)))


def test_cosine_matches_fsum_oracle():
    gen = np.random.default_rng(71)
    for _ in range(200):
        dims = int(gen.integers(2, 9))
        a = gen.normal(size=dims)
        b = gen.normal(size=dims)
        got = cosine_similarity(a, b)
        assert got == pytest.approx(_fsum_cosine(a, b), rel=1e-12, abs=1e-12)
        assert cosine_distance(a, b) == 1.0 - got


def test_cosine_simple_values():
    assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert cosine_similarity([1.0, 0.0], [1.0, 1.0]) == pytest.approx(
        1 / math.sqrt(2), rel=1e-15
    )
    assert cosine_similarity([2.0, 0.0], [4.0, 0.0]) == 1.0


def test_cosine_exact_parallel_shortcut():
    v = np.array([0.1, math.pi, -2.7182818])
    assert cosine_similarity(v, v) == 1.0
    assert cosine_similarity(v, -v) == -1.0
    assert cosine_distance(v, v) == 0.0
    assert cosine_distance(v, -v) == 2.0
    # as rows: an equal row (-0.0 equals 0.0) is 1.0, an opposite row -1.0
    w = np.array([0.0, 1 / 3, -5.0])
    rows = np.array([v, -v, [-0.0, 1 / 3, -5.0], -w, v + 1.0])
    got = cosine_similarity(rows, w)
    assert got.tolist()[1:4] == [cosine_similarity(-v, w), 1.0, -1.0]
    assert cosine_similarity(rows, rows).tolist() == [1.0] * 5
    assert cosine_distance(rows, rows[::-1]).tolist()[2] == 0.0
    assert isinstance(cosine_similarity(v, w), float)


def test_cosine_rows_equal_per_pair_calls():
    gen = np.random.default_rng(8)
    rows = gen.normal(size=(40, 7))
    other = gen.normal(size=(40, 7))
    got = cosine_similarity(rows, other)
    assert got.shape == (40,)
    assert got.tolist() == [cosine_similarity(a, b) for a, b in zip(rows, other)]
    assert cosine_similarity(rows, other[0]).tolist() == [
        cosine_similarity(a, other[0]) for a in rows
    ]


@pytest.mark.parametrize("dims", [1, 3, 64, 256, 257])
def test_vecdot_rows_give_the_bits_of_per_pair_dots(dims):
    # cosine_similarity takes its row dots from np.vecdot; its outputs match
    # the per-pair code only while each row gets the bits of the 1-D a @ b
    gen = np.random.default_rng(dims)
    wide = gen.normal(size=(24, 2 * dims)) * 10.0 ** gen.integers(-3, 4, size=(24, 1))
    wide[::5, ::3] = -0.0
    layouts = {
        "contiguous": np.ascontiguousarray(wide[:, :dims]),
        "strided": wide[:, ::2],
        "fortran": np.asfortranarray(wide[:, dims:]),
        "reversed rows": wide[::-1, 1 : dims + 1],
    }
    q = gen.normal(size=dims)
    for name, rows in layouts.items():
        others = np.roll(rows, 1, axis=0)
        for got, pairs in (
            (np.vecdot(rows, q), [(a, q) for a in rows]),
            (np.vecdot(rows, others), list(zip(rows, others))),
            (np.vecdot(rows, rows), [(a, a) for a in rows]),
        ):
            want = np.array([float(a @ b) for a, b in pairs])
            assert got.tobytes() == want.tobytes(), name


def test_cosine_clamped_to_unit_interval():
    gen = np.random.default_rng(5)
    for _ in range(300):
        v = gen.normal(size=4)
        k = float(gen.uniform(0.1, 3.0))
        assert cosine_similarity(v, k * v) <= 1.0
        assert cosine_similarity(v, -k * v) >= -1.0


def test_cosine_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        cosine_similarity([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="zero vector"):
        cosine_similarity([1.0, 0.0], [0.0, -0.0])
    with pytest.raises(ValueError, match="zero vector"):
        cosine_similarity([[1.0, 0.0], [0.0, -0.0]], [1.0, 1.0])
    with pytest.raises(ValueError, match="zero vector"):
        cosine_distance([1.0, 1.0], [[1.0, 2.0], [0.0, 0.0]])
    # nonzero, but its squared norm underflows to 0.0: no finite cosine either
    with pytest.raises(ValueError, match="zero vector"):
        cosine_similarity([1e-200, 0.0], [1.0, 1.0])


def _random_forms(rnd, size, with_unk):
    forms = set()
    while len(forms) < size - int(with_unk):
        pcs = sorted(rnd.sample(range(12), rnd.randrange(1, 5)))
        forms.add(".".join(str(pc) for pc in pcs))
    ordered = sorted(forms)
    rnd.shuffle(ordered)
    return (["UNK"] if with_unk else []) + ordered


def _integer_space(rnd, size, dims, with_unk):
    forms = _random_forms(rnd, size, with_unk)
    gen = np.random.default_rng(rnd.randrange(1 << 30))
    vectors = gen.integers(-3, 4, size=(size, dims)).astype(np.float64)
    for i in range(size):
        while not vectors[i].any():
            vectors[i] = gen.integers(-3, 4, size=dims).astype(np.float64)
    return EmbeddingSpace(forms, vectors)


def _oracle_distance(q, c):
    if np.array_equal(q, c):
        return 0.0
    if np.array_equal(q, -c):
        return 2.0
    dot = math.fsum(float(x) * float(y) for x, y in zip(q, c))
    nq = math.sqrt(math.fsum(float(x) * float(x) for x in q))
    nc = math.sqrt(math.fsum(float(y) * float(y) for y in c))
    return 1.0 - min(1.0, max(-1.0, dot / (nq * nc)))


def test_nearest_matches_brute_force_oracle():
    # integer-valued vectors keep oracle and implementation math bit-equal,
    # so rankings must agree exactly, ties included
    rnd = random.Random(2024)
    for _ in range(60):
        size = rnd.randrange(3, 30)
        dims = rnd.choice([2, 3, 4, 6])
        with_unk = rnd.random() < 0.7
        space = _integer_space(rnd, size, dims, with_unk)
        query = rnd.randrange(size)
        n = rnd.choice([1, 3, size, size + 5])
        exclude_self = rnd.random() < 0.7
        exclude_unk = rnd.random() < 0.7
        expected = []
        for cand in range(size):
            if exclude_self and cand == query:
                continue
            if exclude_unk and cand == space.unk_id:
                continue
            dist = _oracle_distance(space.vector(query), space.vector(cand))
            expected.append((dist, space.form_of(cand), cand))
        expected.sort()
        got = nearest(space, query, n, exclude_self=exclude_self, exclude_unk=exclude_unk)
        assert got == [(cand, dist) for dist, _, cand in expected[:n]]


def test_nearest_breaks_ties_by_form():
    v = [1.0, 2.0]
    space = EmbeddingSpace(["UNK", "0.4.7", "0.3.7", "2.7"], np.array([v, v, v, v]))
    got = nearest(space, 1, 3)
    assert got == [(2, 0.0), (3, 0.0)]  # UNK and self excluded, forms ordered


def test_nearest_edge_cases():
    space = EmbeddingSpace(["0", "4", "7"], np.eye(3))
    assert nearest(space, 0, 1, exclude_self=False)[0] == (0, 0.0)
    assert len(nearest(space, 0, 99)) == 2
    assert nearest(EmbeddingSpace(["0"], np.ones((1, 2))), 0, 3) == []
    with pytest.raises(ValueError):
        nearest(space, 0, 0)
    with pytest.raises(KeyError):
        nearest(space, 3, 1)
    # an excluded zero row (here UNK) is never measured, so it never raises
    zero_unk = EmbeddingSpace(["UNK", "0", "4"], np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert nearest(zero_unk, 1, 5) == [(2, 1.0)]
    with pytest.raises(ValueError, match="zero vector"):
        nearest(zero_unk, 1, 5, exclude_unk=False)


def test_pair_vector_angle_right_angles():
    vectors = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [-3.0, 0.0]])
    space = EmbeddingSpace(["0", "2", "4", "5", "7"], vectors)
    assert pair_vector_angle(space, 0, 1, 0, 2) == 90.0
    assert pair_vector_angle(space, 0, 1, 0, 3) == 0.0
    assert pair_vector_angle(space, 0, 1, 0, 4) == 180.0
    assert pair_vector_angle(space, 0, 1, 0, 1) == 0.0  # identical pair
    with pytest.raises(ValueError, match="zero"):
        pair_vector_angle(space, 1, 1, 0, 2)


def test_pair_vector_angle_oracle():
    rnd = random.Random(9)
    for _ in range(50):
        space = _integer_space(rnd, 6, 3, with_unk=False)
        a1, b1, a2, b2 = (rnd.randrange(6) for _ in range(4))
        v1 = space.vector(b1) - space.vector(a1)
        v2 = space.vector(b2) - space.vector(a2)
        if not v1.any() or not v2.any():
            continue
        expected = math.degrees(math.acos(_fsum_cosine(v1, v2)))
        assert pair_vector_angle(space, a1, b1, a2, b2) == pytest.approx(
            expected, abs=1e-9
        )


NASTY_VALUES = [-0.0, 5e-324, -5e-324, 1e300, -1e308, 1 / 3, 0.1, math.pi, 2.0**-1022]


def test_save_load_bit_exact(tmp_path):
    rnd = random.Random(13)
    gen = np.random.default_rng(13)
    vectors = gen.normal(size=(6, len(NASTY_VALUES)))
    vectors[2] = NASTY_VALUES
    vectors[4] = [v * 0.5 for v in NASTY_VALUES]
    space = EmbeddingSpace(_random_forms(rnd, 6, with_unk=True), vectors)
    path = tmp_path / "emb.txt"
    save_embedding(str(path), space)
    loaded = load_embedding(str(path))
    assert loaded.forms == space.forms
    assert loaded.vectors.tobytes() == space.vectors.tobytes()
    # a second save of the loaded space is byte-identical
    path2 = tmp_path / "emb2.txt"
    save_embedding(str(path2), loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_save_header_and_layout(tmp_path):
    space = EmbeddingSpace(["UNK", "0.4.7"], np.array([[0.5, -1.5], [2.0, 0.25]]))
    path = tmp_path / "emb.txt"
    save_embedding(str(path), space)
    lines = path.read_text().splitlines()
    assert lines[0] == "SLICEVEC v1 2 2"
    assert lines[1] == "UNK 0.5 -1.5"
    assert lines[2] == "0.4.7 2.0 0.25"


@pytest.mark.parametrize(
    "text",
    [
        "WRONG v1 1 2\n0 1.0 2.0\n",
        "SLICEVEC v2 1 2\n0 1.0 2.0\n",
        "SLICEVEC v1 2 2\n0 1.0 2.0\n",  # truncated: one row missing
        "SLICEVEC v1 1 2\n0 1.0\n",  # short row
        "SLICEVEC v1 1 2\n0 nan 2.0\n",  # non-finite value
        "SLICEVEC v1 1 2\n7.4 1.0 2.0\n",  # non-canonical form
        "garbage\n",
    ],
)
def test_load_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError):
        load_embedding(str(path))


def test_load_rejects_trailing_line_and_negative_counts(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("SLICEVEC v1 1 2\nUNK 1.0 2.0\n0.4.7 1.0 2.0\n")
    with pytest.raises(ValueError, match="after the 1 counted lines"):
        load_embedding(str(path))
    for header in ("SLICEVEC v1 -1 2\n", "SLICEVEC v1 1 -2\n"):
        path.write_text(header)
        with pytest.raises(ValueError, match="negative count"):
            load_embedding(str(path))


def test_load_refuses_header_counts_the_file_cannot_hold(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("SLICEVEC v1 10000000 10000000\nUNK 1.0\n")
    with pytest.raises(ValueError, match="exceed the file's size"):
        load_embedding(str(path))
    # one-byte values: the smallest file a header allows
    path.write_text("SLICEVEC v1 2 1\nUNK 1\n0 2\n")
    space = load_embedding(str(path))
    assert space.size == 2 and space.vector(1).tolist() == [2.0]


def test_space_validation():
    with pytest.raises(ValueError, match="2-D"):
        EmbeddingSpace(["0"], np.zeros(3))
    with pytest.raises(ValueError, match="forms but"):
        EmbeddingSpace(["0", "4"], np.zeros((3, 2)))
    with pytest.raises(ValueError, match="finite"):
        EmbeddingSpace(["0"], np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError):
        EmbeddingSpace(["7.4"], np.zeros((1, 2)))  # descending pcs
    with pytest.raises(ValueError, match="duplicate"):
        EmbeddingSpace(["0", "0"], np.zeros((2, 2)))


def test_space_is_immutable_and_copied():
    source = np.array([[1.0, 2.0], [3.0, 4.0]])
    space = EmbeddingSpace(["0", "4"], source)
    source[0, 0] = 99.0
    assert space.vector(0)[0] == 1.0
    with pytest.raises(ValueError):
        space.vectors[0, 0] = 5.0  # read-only array


def test_space_lookups():
    space = EmbeddingSpace(["UNK", "0.4.7", "R"], np.eye(3))
    assert space.size == 3 and space.dims == 3
    assert space.unk_id == 0
    assert "0.4.7" in space and "5" not in space
    assert space.id_of("R") == 2
    assert space.form_of(1) == "0.4.7"
    with pytest.raises(KeyError):
        space.id_of("5.9")
    no_unk = EmbeddingSpace(["0", "4"], np.eye(2))
    assert no_unk.unk_id is None


def test_from_training_uses_input_vectors():
    ranked = [(Slice((0, 4, 7)), 9), (Slice((2, 7)), 4)]
    vocab = Vocabulary(ranked, unk_count=1)
    emb = EmbeddingMatrix.initialize(vocab.size, 4, Rng(77))
    space = EmbeddingSpace.from_training(vocab, emb)
    assert space.forms == ("UNK", "0.4.7", "2.7")
    assert np.array_equal(space.vectors, emb.input_vectors)
    emb.input_vectors[0, 0] = 123.0
    assert space.vector(0)[0] != 123.0  # space holds a copy
