"""Functional-harmony analyses: role algebra, matrices, CSV round-trips."""

from __future__ import annotations

import math
import random
import warnings

import numpy as np
import pytest
from analysis_oracle import circle_distance, piece_centroid, transpose_piece
from csv_readers import load_matrix

from slicevec.analysis import (
    CIRCLE_OF_FIFTHS,
    MAJOR_ROLES,
    MINOR_ROLES,
    PC_OF_NAME,
    ChordSpec,
    SimilarityMatrix,
    analogy_angle_matrix,
    chord_distance_profile,
    key_similarity_matrix,
    realize_role,
)
from slicevec.embedding import EmbeddingSpace, cosine_distance, pair_vector_angle
from slicevec.slicer import Slice

# independent statement of the role table: semitone offsets of each chord
# tone above the key root
EXPECTED_ROLE_TONES = {
    ("major", "I"): (0, 4, 7),
    ("major", "V"): (7, 11, 14),
    ("major", "IV"): (5, 9, 12),
    ("major", "vi"): (9, 12, 16),
    ("major", "IIIb"): (3, 7, 10),
    ("major", "IIb"): (1, 5, 8),
    ("major", "v"): (7, 10, 14),
    ("minor", "i"): (0, 3, 7),
    ("minor", "v"): (7, 10, 14),
}


def _triad_form(root: int, quality: str) -> str:
    ivs = (0, 4, 7) if quality == "major" else (0, 3, 7)
    return Slice(tuple(sorted((root + iv) % 12 for iv in ivs))).form


def test_realize_role_against_literal_table():
    for (mode, role), tones in EXPECTED_ROLE_TONES.items():
        for root in range(12):
            spec = realize_role(role, root, mode)
            assert spec.pitch_classes() == {(root + t) % 12 for t in tones}


def test_realize_role_spot_checks():
    assert realize_role("V", 0, "major").pitch_classes() == {7, 11, 2}
    assert realize_role("vi", 0, "major").pitch_classes() == {9, 0, 4}
    assert realize_role("i", 9, "minor").pitch_classes() == {9, 0, 4}
    assert realize_role("IIb", 7, "major").pitch_classes() == {8, 0, 3}
    assert realize_role("V", 0, "major").to_slice().form == "2.7.11"


def test_realize_role_rejects_unknown():
    with pytest.raises(ValueError):
        realize_role("ii", 0, "major")
    with pytest.raises(ValueError):
        realize_role("I", 0, "minor")  # major-mode role name
    with pytest.raises(ValueError):
        realize_role("I", 0, "dorian")


def test_chord_spec_validation():
    assert ChordSpec(0, "major").to_slice().form == "0.4.7"
    assert ChordSpec(11, "major").to_slice().form == "3.6.11"
    with pytest.raises(ValueError):
        ChordSpec(12, "major")
    with pytest.raises(ValueError):
        ChordSpec(0, "diminished")


def test_chord_distance_profile_crafted_space():
    forms = ["0.4.7", "2.7.11", "0.5.9"]
    vectors = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    space = EmbeddingSpace(forms, vectors)
    tonic = ChordSpec(0, "major")
    profile = chord_distance_profile(space, tonic, ["I", "V", "IV", "vi"])
    assert profile["I"] == 0.0  # same token as the tonic
    assert profile["V"] == 1.0  # orthogonal
    assert profile["IV"] == 2.0  # exactly opposite
    assert profile["vi"] is None  # 0.4.9 missing from vocabulary


def test_chord_distance_profile_requires_tonic():
    space = EmbeddingSpace(["2.7.11"], np.array([[1.0, 0.0]]))
    with pytest.raises(KeyError, match="0.4.7"):
        chord_distance_profile(space, ChordSpec(0, "major"), ["V"])


def test_circle_distance_frozen_pairs():
    assert circle_distance(0, 0) == 0
    assert circle_distance(0, 7) == 1  # C-G
    assert circle_distance(0, 5) == 1  # C-F
    assert circle_distance(0, 2) == 2  # C-D
    assert circle_distance(0, 6) == 6  # C-F#
    assert circle_distance(0, 1) == 5  # C-Db
    assert circle_distance(4, 11) == 1  # E-B
    assert circle_distance(10, 3) == 1  # Bb-Eb
    for a in range(12):
        for b in range(12):
            assert circle_distance(a, b) == circle_distance(b, a)
            assert 0 <= circle_distance(a, b) <= 6


def test_transpose_piece():
    piece = [Slice((0, 4, 7)), Slice(()), Slice((11,))]
    up = transpose_piece(piece, 2)
    assert [s.form for s in up] == ["2.6.9", "R", "1"]
    assert transpose_piece(piece, 0) == piece
    assert transpose_piece(transpose_piece(piece, 5), 7) == piece


def test_piece_centroid_skips_oov():
    space = EmbeddingSpace(["0", "4"], np.array([[2.0, 0.0], [0.0, 4.0]]))
    slices = [Slice((0,)), Slice((4,)), Slice((7,))]  # "7" is OOV
    centroid, n_used = piece_centroid(space, slices)
    assert n_used == 2
    assert np.array_equal(centroid, [1.0, 2.0])
    none_c, none_n = piece_centroid(space, [Slice((7,))])
    assert none_c is None and none_n == 0


def test_similarity_matrix_shape_validation():
    with pytest.raises(ValueError):
        SimilarityMatrix(("a",), np.zeros((2, 2)))


def test_similarity_matrix_csv_round_trip(tmp_path):
    values = np.array([[0.0, 0.123456789], [110.83, math.nan]])
    mat = SimilarityMatrix(("C", "G"), values, "degrees")
    path = tmp_path / "mat.csv"
    mat.save_csv(str(path))
    raw = path.read_bytes()
    assert raw.startswith(b"# units: degrees\r\n")
    assert b"0.123457" in raw  # six significant digits
    loaded = load_matrix(str(path))
    assert loaded.units == "degrees"
    assert loaded.labels == ("C", "G")
    assert math.isnan(loaded.values[1, 1])
    assert loaded.values[1, 0] == 110.83
    # serialization is idempotent: save(load(f)) == f
    path2 = tmp_path / "mat2.csv"
    loaded.save_csv(str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_similarity_matrix_distance_units_have_no_comment(tmp_path):
    mat = SimilarityMatrix(("C",), np.array([[1e-07]]))
    path = tmp_path / "d.csv"
    mat.save_csv(str(path))
    text = path.read_text()
    assert not text.startswith("#")
    loaded = load_matrix(str(path))
    assert loaded.units == "distance"
    assert loaded.values[0, 0] == 1e-07
    path2 = tmp_path / "d2.csv"
    loaded.save_csv(str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_similarity_matrix_rejects_foreign_csv(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        load_matrix(str(path))


def _one_hot_major_space() -> EmbeddingSpace:
    # each major triad gets the unit vector of its root pitch class
    forms = [_triad_form(root, "major") for root in range(12)]
    return EmbeddingSpace(forms, np.eye(12))


def test_key_similarity_matrix_orthogonal_oracle():
    space = _one_hot_major_space()
    piece = ([Slice((0, 4, 7)),], 0)  # single C major triad
    mat = key_similarity_matrix(space, [piece], "major")
    expected = np.ones((12, 12)) - np.eye(12)  # all one-hot pairs orthogonal
    assert np.array_equal(mat.values, expected)
    assert mat.labels == CIRCLE_OF_FIFTHS
    assert mat.units == "distance"


def _oracle_distance(a, b):
    if np.array_equal(a, b):
        return 0.0
    if np.array_equal(a, -b):
        return 2.0
    dot = math.fsum(float(x) * float(y) for x, y in zip(a, b))
    na = math.sqrt(math.fsum(float(x) * float(x) for x in a))
    nb = math.sqrt(math.fsum(float(y) * float(y) for y in b))
    return 1.0 - min(1.0, max(-1.0, dot / (na * nb)))


def test_key_similarity_matrix_matches_manual_average():
    # vocabulary of all 24 triads with small integer vectors; pieces of one
    # or two slices keep all centroid arithmetic exact, so the manual
    # average must agree bitwise
    forms = [_triad_form(r, q) for q in ("major", "minor") for r in range(12)]
    gen = np.random.default_rng(42)
    vectors = gen.integers(-3, 4, size=(24, 6)).astype(np.float64)
    for i in range(24):
        while not vectors[i].any():
            vectors[i] = gen.integers(-3, 4, size=6).astype(np.float64)
    space = EmbeddingSpace(forms, vectors)
    pieces = [
        ([Slice((0, 4, 7)), Slice((0, 4, 9))], 0),
        ([Slice((2, 7, 11))], 7),
    ]
    mat = key_similarity_matrix(space, pieces, "major")
    roots = [PC_OF_NAME[name] for name in CIRCLE_OF_FIFTHS]
    expected = np.zeros((12, 12))
    for slices, piece_root in pieces:
        cents = []
        for target in roots:
            moved = transpose_piece(slices, (target - piece_root) % 12)
            rows = [space.vectors[space.id_of(s.form)] for s in moved]
            cents.append(sum(rows) / len(rows))
        for i in range(12):
            for j in range(12):
                if i != j:
                    expected[i, j] += _oracle_distance(cents[i], cents[j])
    expected /= len(pieces)
    assert np.array_equal(mat.values, expected)
    assert np.array_equal(mat.values, mat.values.T)
    assert not mat.values.diagonal().any()


def test_key_similarity_excludes_uncovered_piece():
    space = _one_hot_major_space()  # no minor triads in vocabulary
    good = ([Slice((0, 4, 7))], 0)
    bad = ([Slice((0, 3, 7))], 0)  # every transposition is a minor triad
    with pytest.warns(UserWarning, match="excluded"):
        mat = key_similarity_matrix(space, [good, bad], "major")
    alone = key_similarity_matrix(space, [good], "major")
    assert np.array_equal(mat.values, alone.values)


def _per_transposition_key_values(space, pieces):
    """The reference: transpose every piece and take each centroid anew."""
    roots = [PC_OF_NAME[name] for name in CIRCLE_OF_FIFTHS]
    total = np.zeros((12, 12))
    used = 0
    for slices, piece_root in pieces:
        cents = [
            piece_centroid(space, transpose_piece(slices, (target - piece_root) % 12))[0]
            for target in roots
        ]
        if any(c is None for c in cents):
            continue
        for i in range(12):
            for j in range(i + 1, 12):
                d = cosine_distance(cents[i], cents[j])
                total[i, j] += d
                total[j, i] += d
        used += 1
    values = total / used
    np.fill_diagonal(values, 0.0)
    return values


def test_key_similarity_matrix_equals_per_transposition_reference():
    rnd = random.Random(21)
    gen = np.random.default_rng(21)
    triads = [_triad_form(r, q) for q in ("major", "minor") for r in range(12)]
    others = {Slice(tuple(sorted(rnd.sample(range(12), rnd.randrange(1, 5))))).form
              for _ in range(60)} - set(triads)
    forms = ["UNK", "R"] + triads + sorted(others)
    space = EmbeddingSpace(forms, gen.standard_normal((len(forms), 9)))
    pool = [Slice.from_form(f) for f in triads + sorted(others)] + [Slice(())]
    pool += [Slice((0, 1, 2, 3, 4, 5)), Slice((1, 6))]  # out of vocabulary
    pieces = []
    for _ in range(7):
        # a triad keeps every transposition in vocabulary
        motif = rnd.sample(pool, 5) + [Slice.from_form(rnd.choice(triads))]
        slices = [rnd.choice(motif) for _ in range(rnd.randrange(10, 60))] + motif[-1:]
        pieces.append((slices, rnd.randrange(12)))
    # in vocabulary only as played: every other transposition is lost to UNK
    lonely = Slice((0, 1, 2, 3, 4, 5, 6))
    space = EmbeddingSpace(
        forms + [lonely.form], np.vstack([space.vectors, gen.standard_normal((1, 9))])
    )
    pieces.insert(3, ([lonely, lonely], 2))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mat = key_similarity_matrix(space, pieces, "major")
    assert [str(w.message).split(":")[0] for w in caught] == ["piece 3"]
    assert np.array_equal(mat.values, _per_transposition_key_values(space, pieces))


def test_key_similarity_error_cases():
    space = _one_hot_major_space()
    with pytest.raises(ValueError, match="no major pieces"):
        key_similarity_matrix(space, [], "major")
    bad = ([Slice((0, 3, 7))], 0)
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError, match="every piece was excluded"):
            key_similarity_matrix(space, [bad], "major")


def test_analogy_angle_matrix_one_hot_geometry():
    # with one-hot triad vectors the I->V difference vectors meet at 120
    # degrees for fifth-adjacent keys and 90 degrees otherwise
    space = _one_hot_major_space()
    mat = analogy_angle_matrix(space, ("I", "V"), "major")
    assert mat.units == "degrees"
    for i in range(12):
        for j in range(12):
            d = min(abs(i - j), 12 - abs(i - j))
            if d == 0:
                assert mat.values[i, j] == 0.0
            elif d == 1:
                assert mat.values[i, j] == pytest.approx(120.0, abs=1e-9)
            else:
                assert mat.values[i, j] == pytest.approx(90.0, abs=1e-9)


def test_analogy_angle_matrix_missing_key_is_nan():
    space = _one_hot_major_space()
    # drop A major (root 9), the V chord of key D
    keep = [i for i, f in enumerate(space.forms) if f != _triad_form(9, "major")]
    small = EmbeddingSpace(
        [space.forms[i] for i in keep], space.vectors[keep]
    )
    with pytest.warns(UserWarning, match="not measurable"):
        mat = analogy_angle_matrix(small, ("I", "V"), "major")
    d_row = CIRCLE_OF_FIFTHS.index("D")
    a_row = CIRCLE_OF_FIFTHS.index("A")  # key A lost its I chord too
    for i in range(12):
        assert math.isnan(mat.values[d_row, i])
        assert math.isnan(mat.values[i, d_row])
        assert math.isnan(mat.values[a_row, i])
    others = [i for i in range(12) if i not in (d_row, a_row)]
    for i in others:
        assert mat.values[i, i] == 0.0
        for j in others:
            assert not math.isnan(mat.values[i, j])


def test_analogy_angle_matrix_degenerate_pair_is_all_nan():
    space = _one_hot_major_space()
    with pytest.warns(UserWarning):
        mat = analogy_angle_matrix(space, ("I", "I"), "major")
    assert np.isnan(mat.values).all()


def test_major_roles_cover_the_role_table():
    assert set(MAJOR_ROLES) == {
        role for (mode, role) in EXPECTED_ROLE_TONES if mode == "major"
    }


def _acceptance_spaces(acc_main):
    """The acceptance space, which holds every triad, and a copy without the D and A
    major and E minor triads, so that tonics and roles go missing."""
    space = acc_main["space"]
    gone = {_triad_form(2, "major"), _triad_form(9, "major"), _triad_form(4, "minor")}
    keep = [i for i, form in enumerate(space.forms) if form not in gone]
    return space, EmbeddingSpace([space.forms[i] for i in keep], space.vectors[keep])


def test_profile_on_the_acceptance_space_equals_per_pair_lookups(acc_main):
    spaces, missing, refused = _acceptance_spaces(acc_main), 0, 0
    for space in spaces:
        for quality, roles in (("major", MAJOR_ROLES), ("minor", MINOR_ROLES)):
            for root in range(12):
                tonic = ChordSpec(root, quality)
                tonic_form = tonic.to_slice().form
                if tonic_form not in space:
                    with pytest.raises(KeyError, match=f"^'tonic slice {tonic_form} is not"):
                        chord_distance_profile(space, tonic, roles)
                    refused += 1
                    continue
                expected = {}
                for role in roles:
                    form = realize_role(role, root, quality).to_slice().form
                    expected[role] = None if form not in space else cosine_distance(
                        space.vector(space.id_of(tonic_form)), space.vector(space.id_of(form))
                    ).hex()
                profile = chord_distance_profile(space, tonic, roles)
                assert list(profile) == list(roles)
                assert {r: None if d is None else d.hex() for r, d in profile.items()} == expected
                missing += list(expected.values()).count(None)
    assert refused == 3 and missing > 0  # the pruned copy refuses D, A and Em as tonics


def _analogy_per_form(space, role_pair, mode):
    """The per-form loop: one membership test and one id lookup per chord."""
    role_a, role_b = role_pair
    diffs = []
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
            if diffs[j] is not None:
                values[i, j] = values[j, i] = pair_vector_angle(space, *diffs[i], *diffs[j])
    return values


@pytest.mark.parametrize("role_pair", [("I", "V"), ("I", "vi"), ("I", "I")])
def test_analogy_on_the_acceptance_space_equals_the_per_form_loop(acc_main, role_pair):
    for space in _acceptance_spaces(acc_main):
        with warnings.catch_warnings(record=True) as expected_warnings:
            warnings.simplefilter("always")
            expected = _analogy_per_form(space, role_pair, "major")
        with warnings.catch_warnings(record=True) as got_warnings:
            warnings.simplefilter("always")
            matrix = analogy_angle_matrix(space, role_pair, "major")
        assert matrix.values.tobytes() == expected.tobytes()
        assert [str(w.message) for w in got_warnings] == [
            str(w.message) for w in expected_warnings
        ]
