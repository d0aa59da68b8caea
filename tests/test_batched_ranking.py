"""The rows form of nearest and the per-distinct-slice substitution table against
per-query references: the same ids, distance bits, substitutes and warnings."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from slicevec import embedding
from slicevec.embedding import EmbeddingSpace, cosine_distance, nearest, nearest_rows
from slicevec.generator import (
    GeneratorConfig,
    Substitution,
    SubstitutionCandidate,
    pitch_class_weights,
    rewrite_piece,
    substitute_slice,
)
from slicevec.slicer import N_MASKS, SLICES, Slice


def _nearest_per_query(space, query, n, exclude_self=True, exclude_unk=True):
    """One query's exhaustive scan, ties broken by a lexsort on the form strings."""
    keep = np.ones(space.size, dtype=bool)
    keep[query] = not exclude_self
    if exclude_unk and space.unk_id is not None:
        keep[space.unk_id] = False
    cands = np.flatnonzero(keep)
    dist = cosine_distance(space.vector(query), space.vectors[cands])
    order = np.lexsort((np.array(space.forms)[cands], dist))[:n]
    return list(zip(cands[order].tolist(), dist[order].tolist()))


def _substitute_per_query(s, space, config):
    """The substitution rule on one slice from its full per-query ranking."""
    if s.form not in space:
        return Substitution(s, s, None, ())
    ranking = _nearest_per_query(space, space.id_of(s.form), space.size, config.exclude_identity)
    pool = [(space.form_of(c), d) for c, d in ranking if space.form_of(c) != "R"]
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
    candidates = []
    for cand, dist in top:
        score = sum(weights[pc] for pc in cand.pitch_classes) / len(cand.pitch_classes)
        same = len(cand.pitch_classes) == len(s.pitch_classes)
        candidates.append(SubstitutionCandidate(cand, dist, score, same))
    contenders = [c for c in candidates if c.same_count] or candidates
    best = min(contenders, key=lambda c: (-c.score, c.distance, c.slice.form))
    return Substitution(s, best.slice, best.distance, tuple(candidates))


def _bits(pairs):
    return [(i, np.float64(d).tobytes()) for i, d in pairs]


def _rows_as_pairs(ids, dists):
    return [
        [(i, d) for i, d in zip(row_ids, row_dists) if d < np.inf]
        for row_ids, row_dists in zip(ids.tolist(), dists.tolist())
    ]


def _recorded(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [str(w.message) for w in caught]


def _space_slices(space):
    """Every slice of the space (UNK has none), in row order."""
    return [SLICES[m] for m in space.masks.tolist() if m < N_MASKS]


@pytest.mark.parametrize("exclude_identity", [True, False])
def test_every_acc_main_row_ranks_and_substitutes_as_per_query(acc_main, exclude_identity):
    space = acc_main["space"]
    unk = [space.unk_id]
    ids, dists = nearest_rows(space, np.arange(space.size), space.size, exclude_identity, unk)
    for query, got in enumerate(_rows_as_pairs(ids, dists)):
        want = _nearest_per_query(space, query, space.size, exclude_identity)
        assert _bits(got) == _bits(want), query
        top7 = _rows_as_pairs(*nearest_rows(space, [query], 7, exclude_identity, unk))[0]
        assert _bits(top7) == _bits(want[:7])
        if exclude_identity:
            assert _bits(nearest(space, query, 7)) == _bits(want[:7])
    slices = _space_slices(space)
    for top_n in (1, 5, 20):
        config = GeneratorConfig(top_n=top_n, exclude_identity=exclude_identity)
        _, diagnostics = rewrite_piece(slices, space, config)
        assert diagnostics.subs == [_substitute_per_query(s, space, config) for s in slices]


def test_duplicate_vectors_tie_in_form_order():
    forms = ["UNK", "0", "4", "7", "11", "2"]
    vectors = np.array([[5.0, 5], [1, 0], [0, 1], [1, 0], [0, 1], [0, 1]])
    space = EmbeddingSpace(forms, vectors)
    ranked = [space.form_of(i) for i, _ in nearest(space, 1, 5)]
    assert ranked == ["7", "11", "2", "4"]  # "7" at distance 0, then "11" < "2" < "4"
    ids, _ = nearest_rows(space, [1], 5, exclude_self=False, exclude=[0])
    assert [space.form_of(i) for i in ids[0].tolist()] == ["0", "7", "11", "2", "4"]
    ids, dists = nearest_rows(space, [1, 3, 2], 3, exclude=[0])
    assert [[space.form_of(i) for i in row] for row in ids.tolist()] == [
        ["7", "11", "2"], ["0", "11", "2"], ["11", "2", "0"]
    ]
    assert dists.tolist() == [[0.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]
    for q in range(space.size):
        assert _bits(nearest(space, q, 9)) == _bits(_nearest_per_query(space, q, 9))
        want = _nearest_per_query(space, q, 9, exclude_unk=False)
        assert _bits(_rows_as_pairs(*nearest_rows(space, [q], 9))[0]) == _bits(want)


def test_rest_and_unk_queries():
    rnd = np.random.default_rng(8)
    forms = ["UNK", "R", "0.4.7", "2.7.11", "0.5.9", "4", "7.11"]
    space = EmbeddingSpace(forms, rnd.standard_normal((len(forms), 6)))
    for exclude_self in (True, False):
        for exclude_unk in (True, False):
            for n in (1, 3, len(forms)):
                want = _nearest_per_query(space, 0, n, exclude_self, exclude_unk)
                unk = [0] if exclude_unk else []
                got = _rows_as_pairs(*nearest_rows(space, [0], n, exclude_self, unk))[0]
                assert _bits(got) == _bits(want)
                if exclude_self and exclude_unk:  # nearest's exclusions
                    assert _bits(nearest(space, 0, n)) == _bits(want)
    # UNK ranked as a query with UNK excluded keeps every other row: none is dropped as "self"
    assert len(nearest(space, 0, len(forms))) == len(forms) - 1
    rest = Slice(())
    for exclude_identity in (True, False):
        config = GeneratorConfig(top_n=3, exclude_identity=exclude_identity)
        got = substitute_slice(rest, space, config)
        assert got == _substitute_per_query(rest, space, config)
        assert got.result != rest and all(c.slice != rest for c in got.candidates)


def test_top_n_past_the_pool_keeps_the_warnings():
    space = EmbeddingSpace(
        ["UNK", "R", "0", "4", "7"],
        np.array([[9.0, 9], [1, 2], [1, 0], [1, 1], [0, 1]]),
    )
    lonely = EmbeddingSpace(["UNK", "0", "R"], np.eye(3))
    piece = [Slice((4,)), Slice(()), Slice((1, 2)), Slice((0,)), Slice((4,)), Slice((7,))]
    for sp, top_n in ((space, 20), (space, 2), (lonely, 5)):
        for exclude_identity in (True, False):
            config = GeneratorConfig(top_n=top_n, exclude_identity=exclude_identity)
            (out, diagnostics), got = _recorded(rewrite_piece, piece, sp, config)
            seen = list(dict.fromkeys(piece))  # each distinct slice once, in order
            want_subs, want = _recorded(
                lambda: [_substitute_per_query(s, sp, config) for s in seen]
            )
            assert got == want
            assert diagnostics.subs == want_subs
            assert out == [want_subs[seen.index(s)].result for s in piece]


def test_a_small_block_keeps_every_result(acc_main, monkeypatch):
    space = acc_main["space"]
    queries = np.arange(space.size)
    ids, dists = nearest_rows(space, queries, 12, exclude=[space.unk_id])
    slices = _space_slices(space)
    _, diagnostics = rewrite_piece(slices, space, GeneratorConfig(top_n=5))
    for floats in (1, space.size * space.dims * 3 - 1, space.size * space.dims * 7):
        monkeypatch.setattr(embedding, "GATHER_FLOATS", floats)
        got_ids, got_dists = nearest_rows(space, queries, 12, exclude=[space.unk_id])
        assert np.array_equal(got_ids, ids)
        assert got_dists.tobytes() == dists.tobytes()
        assert rewrite_piece(slices, space, GeneratorConfig(top_n=5))[1].subs == diagnostics.subs
