"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v``. Each test prints
``acceptance criterion N (<name>): PASS|FAIL`` on the terminal regardless of
capture settings, then fails normally if its assertions do not hold.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
import warnings

import numpy as np
import pytest
from analysis_oracle import circle_distance
from conftest import ACC_SEED

from slicevec.analysis import (
    CIRCLE_OF_FIFTHS,
    MAJOR_ROLES,
    PC_OF_NAME,
    ChordSpec,
    analogy_angle_matrix,
    chord_distance_profile,
    key_similarity_matrix,
)
from slicevec.embedding import (
    EmbeddingSpace,
    load_embedding,
    save_embedding,
)
from slicevec.generator import GeneratorConfig, emit_midi, rewrite_piece, substitute_slice
from slicevec.midi import MidiPiece, parse_midi
from slicevec.rng import Rng
from slicevec.slicer import (
    Slice,
    build_vocabulary,
    encode_corpus,
    load_corpus,
    load_vocabulary,
    make_slice,
    save_corpus,
    save_vocabulary,
    slices_from_piece,
)
from slicevec.synth import generate_piece, piece_notes, piece_rng
from slicevec.trainer import (
    EmbeddingMatrix,
    NoiseDistribution,
    NumericalAbortError,
    TrainingConfig,
    neg_sample,
    sgd_step,
    train,
)

A_MINOR_SCALE = {9, 11, 0, 2, 4, 5, 7}


@pytest.fixture
def report(capsys):
    def _report(num: int, name: str, passed: bool) -> None:
        verdict = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"\nacceptance criterion {num} ({name}): {verdict}")

    return _report


@pytest.fixture(scope="module")
def acc_runs(acc_pieces):
    """Limited-coverage training at vocab caps 500 and 500->100.

    Small batches at a low learning rate leave each corpus position only
    lightly visited, so frequent slice forms converge while the long tail
    of rare ornament forms stays near initialization. That is the regime
    where folding the tail into UNK lowers the reachable loss: the pooled
    token accumulates enough updates to train while the individual rare
    forms do not.
    """
    flat = [s for slices, _, _ in acc_pieces for s in slices]
    config = TrainingConfig(
        dims=64,
        window_c=4,
        num_skips_k=2,
        negative_samples=5,
        learning_rate=0.01,
        batch_size=8,
        steps=50_000,
        seed=ACC_SEED,
        loss_every=2000,
    )
    runs = {}
    started = time.perf_counter()
    for cap in (500, 100):
        vocab = build_vocabulary(iter(flat), cap)
        corpus = encode_corpus([slices for slices, _, _ in acc_pieces], vocab)
        emb, trace = train(corpus, vocab, config)
        runs[cap] = {
            "vocab": vocab,
            "corpus": corpus,
            "emb": emb,
            "trace": trace,
            "space": EmbeddingSpace.from_training(vocab, emb),
        }
    runs["elapsed"] = time.perf_counter() - started
    runs["config"] = config
    return runs


def _fd_mean_loss(inp, out, pairs, negs):
    total = 0.0
    for (c, t), neg_row in zip(pairs, negs):
        dot = math.fsum(float(x) * float(y) for x, y in zip(inp[c], out[t]))
        loss = math.log1p(math.exp(-dot))
        for nid in neg_row:
            dn = math.fsum(float(x) * float(y) for x, y in zip(inp[c], out[nid]))
            loss += math.log1p(math.exp(dn))
        total += loss
    return total / len(pairs)


def test_criterion_1_gradient_check(report):
    ok = False
    try:
        started = time.perf_counter()
        rnd = random.Random(101)
        eps = 1e-4
        instances = 0
        while instances < 100:
            vocab_size = rnd.randrange(5, 12)
            dims = rnd.randrange(3, 7)
            n_pairs = rnd.randrange(1, 5)
            n_neg = rnd.randrange(1, 4)
            gen = np.random.default_rng(rnd.randrange(1 << 30))
            inp = gen.uniform(-0.8, 0.8, (vocab_size, dims))
            out = gen.uniform(-0.8, 0.8, (vocab_size, dims))
            pairs = [
                (rnd.randrange(vocab_size), rnd.randrange(vocab_size))
                for _ in range(n_pairs)
            ]
            counts = np.array(
                [rnd.randrange(0, 9) for _ in range(vocab_size)], dtype=np.int64
            )
            noise = NoiseDistribution.from_counts(counts)
            config = TrainingConfig(
                dims=dims, window_c=2, num_skips_k=1, negative_samples=n_neg,
                learning_rate=1.0, batch_size=n_pairs, steps=1, seed=1,
            )
            rng = Rng(rnd.randrange(1 << 30))
            probe = Rng.from_state(rng.state)
            negs = [
                [neg_sample(noise, probe, ctx) for _ in range(n_neg)]
                for _, ctx in pairs
            ]
            emb = EmbeddingMatrix(inp.copy(), out.copy())
            sgd_step(emb, pairs, config, noise, rng)
            # learning rate 1 makes the update equal the analytic gradient
            grad_inp = inp - emb.input_vectors
            grad_out = out - emb.output_vectors
            coords = []
            for c, _ in pairs:
                coords.append(("inp", c))
            for (_, t), neg_row in zip(pairs, negs):
                coords.append(("out", t))
                coords.extend(("out", nid) for nid in neg_row)
            checked_here = 0
            for which, row in coords:
                for d in range(dims):
                    g = (grad_inp if which == "inp" else grad_out)[row, d]
                    if abs(g) <= 1e-3 or checked_here >= 4:
                        continue
                    plus = [inp.copy(), out.copy()]
                    minus = [inp.copy(), out.copy()]
                    idx = 0 if which == "inp" else 1
                    plus[idx][row, d] += eps
                    minus[idx][row, d] -= eps
                    fd = (
                        _fd_mean_loss(plus[0], plus[1], pairs, negs)
                        - _fd_mean_loss(minus[0], minus[1], pairs, negs)
                    ) / (2 * eps)
                    assert abs(fd - g) / max(abs(fd), abs(g)) < 1e-4
                    checked_here += 1
            if checked_here:
                instances += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"
        ok = True
    finally:
        report(1, "analytic gradient vs finite differences", ok)


def test_criterion_2_loss_descends_and_small_vocab_is_easier(acc_runs, report):
    ok = False
    try:
        trace500 = acc_runs[500]["trace"].checkpoints
        trace100 = acc_runs[100]["trace"].checkpoints
        assert trace500[-1][1] < trace500[0][1]
        assert trace100[-1][1] < trace100[0][1]
        assert trace100[-1][1] < trace500[-1][1]
        assert acc_runs["elapsed"] < 120.0, f"training took {acc_runs['elapsed']:.0f}s"
        ok = True
    finally:
        report(2, "training loss descends; smaller vocabulary trains lower", ok)


def test_criterion_3_functional_chord_distances(acc_runs, report):
    ok = False
    try:
        space = acc_runs[500]["space"]
        near_roles = ("V", "IV", "vi")
        far_roles = ("IIIb", "IIb", "v")
        for name in ("C", "G", "F"):
            tonic = ChordSpec(PC_OF_NAME[name], "major")
            profile = chord_distance_profile(space, tonic, MAJOR_ROLES)
            for role in near_roles + far_roles:
                assert profile[role] is not None, f"{role} of {name} not in vocabulary"
            near = np.mean([profile[r] for r in near_roles])
            far = np.mean([profile[r] for r in far_roles])
            assert near < far, f"{name}: near {near:.4f} !< far {far:.4f}"
        ok = True
    finally:
        report(3, "functional relatives sit closer to the tonic", ok)


def test_criterion_4_key_distance_tracks_circle_of_fifths(acc_main, acc_pieces, report):
    scipy_stats = pytest.importorskip("scipy.stats")
    ok = False
    try:
        space = acc_main["space"]
        major_pieces = [
            (slices, root) for slices, root, mode in acc_pieces if mode == "major"
        ]
        matrix = key_similarity_matrix(space, major_pieces, "major")
        roots = [PC_OF_NAME[name] for name in CIRCLE_OF_FIFTHS]
        distances = []
        steps = []
        for i in range(12):
            for j in range(i + 1, 12):
                distances.append(matrix.values[i, j])
                steps.append(circle_distance(roots[i], roots[j]))
        rho = scipy_stats.spearmanr(distances, steps).statistic
        assert rho > 0.5, f"spearman rho {rho:.3f} <= 0.5"
        ok = True
    finally:
        report(4, "key similarity correlates with circle-of-fifths distance", ok)


def test_criterion_5_i_v_angles_are_more_consistent(acc_main, report):
    ok = False
    try:
        space = acc_main["space"]
        adjacent = [(i, (i + 1) % 12) for i in range(12)]
        stds = {}
        for roles in (("I", "V"), ("I", "vi")):
            matrix = analogy_angle_matrix(space, roles, "major")
            angles = [matrix.values[i, j] for i, j in adjacent]
            assert not any(math.isnan(a) for a in angles), f"{roles} pair unmeasurable"
            stds[roles] = float(np.std(angles))
        assert stds[("I", "V")] < stds[("I", "vi")], (
            f"I-V angle std {stds[('I', 'V')]:.2f} !< "
            f"I-vi angle std {stds[('I', 'vi')]:.2f}"
        )
        ok = True
    finally:
        report(5, "I-V analogy angles vary less than I-vi", ok)


def _oracle_distance(a, b):
    if np.array_equal(a, b):
        return 0.0
    if np.array_equal(a, -b):
        return 2.0
    dot = math.fsum(float(x) * float(y) for x, y in zip(a, b))
    na = math.sqrt(math.fsum(float(x) * float(x) for x in a))
    nb = math.sqrt(math.fsum(float(y) * float(y) for y in b))
    return 1.0 - min(1.0, max(-1.0, dot / (na * nb)))


def _oracle_substitute(space, s, top_n, exclude_identity):
    if s.form not in space:
        return s, None
    sid = space.id_of(s.form)
    ranked = []
    for cand in range(space.size):
        if exclude_identity and cand == sid:
            continue
        if cand == space.unk_id:
            continue
        form = space.form_of(cand)
        dist = _oracle_distance(space.vector(sid), space.vector(cand))
        ranked.append((dist, form, cand))
    ranked.sort()
    pool = [(form, dist) for dist, form, _ in ranked if form != "R"]
    if not pool:
        return s, None
    top = [(Slice.from_form(form), dist) for form, dist in pool[:top_n]]
    counts = [0] * 12
    for cand, _ in top:
        for pc in cand.pitch_classes:
            counts[pc] += 1
    total = sum(counts)
    scored = []
    for cand, dist in top:
        score = sum(counts[pc] / total for pc in cand.pitch_classes) / len(
            cand.pitch_classes
        )
        scored.append(
            (cand, dist, score, len(cand.pitch_classes) == len(s.pitch_classes))
        )
    same = [e for e in scored if e[3]]
    contenders = same if same else scored
    best = min(contenders, key=lambda e: (-e[2], e[1], e[0].form))
    return best[0], best[1]


def _random_small_space(rnd):
    size = rnd.randrange(3, 51)
    dims = rnd.choice([2, 3, 4, 6])
    with_unk = rnd.random() < 0.8
    with_rest = rnd.random() < 0.3
    forms = set()
    budget = size - int(with_unk) - int(with_rest)
    while len(forms) < budget:
        pcs = sorted(rnd.sample(range(12), rnd.randrange(1, 5)))
        forms.add(".".join(str(pc) for pc in pcs))
    ordered = sorted(forms)
    rnd.shuffle(ordered)
    all_forms = (["UNK"] if with_unk else []) + (["R"] if with_rest else []) + ordered
    gen = np.random.default_rng(rnd.randrange(1 << 30))
    vectors = gen.integers(-3, 4, size=(size, dims)).astype(np.float64)
    for i in range(size):
        while not vectors[i].any():
            vectors[i] = gen.integers(-3, 4, size=dims).astype(np.float64)
    return EmbeddingSpace(all_forms, vectors)


def test_criterion_6_substitution_matches_oracle(report):
    ok = False
    try:
        rnd = random.Random(2026)
        preference_opportunities = 0
        for _ in range(1000):
            space = _random_small_space(rnd)
            top_n = rnd.choice([1, 5, 10, 20])
            exclude_identity = rnd.random() < 0.8
            if rnd.random() < 0.85:
                content = [f for f in space.forms if f not in ("UNK", "R")]
                query = Slice.from_form(rnd.choice(content))
            else:
                query = Slice((0, 1, 2, 3, 4, 5))
            config = GeneratorConfig(top_n=top_n, exclude_identity=exclude_identity)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = substitute_slice(query, space, config)
            want_slice, want_dist = _oracle_substitute(
                space, query, top_n, exclude_identity
            )
            assert got.result == want_slice
            assert got.distance == want_dist
            if any(c.same_count for c in got.candidates):
                preference_opportunities += 1
                assert len(got.result.pitch_classes) == len(query.pitch_classes)
        assert preference_opportunities >= 100
        ok = True
    finally:
        report(6, "substitution rule matches the brute-force oracle", ok)


def test_criterion_7_wider_pool_stays_in_key(acc_main, report):
    ok = False
    try:
        space = acc_main["space"]
        beats = generate_piece(9, "minor", 16, piece_rng(ACC_SEED + 1, 9, "minor", 0))
        slices = [make_slice(b) for b in beats]

        def out_of_key_count(top_n: int) -> int:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rewritten, _ = rewrite_piece(
                    slices, space, GeneratorConfig(top_n=top_n)
                )
            return sum(
                1
                for s in rewritten
                for pc in s.pitch_classes
                if pc not in A_MINOR_SCALE
            )

        wide, narrow = out_of_key_count(20), out_of_key_count(1)
        assert wide <= narrow, f"top_n=20 leaves {wide} out-of-key notes vs {narrow}"
        ok = True
    finally:
        report(7, "larger top-n does not add out-of-key notes", ok)


def test_criterion_8_round_trips(acc_main, acc_pieces, tmp_path, report):
    ok = False
    try:
        space = acc_main["space"]
        # embedding text round-trip is bit-exact
        emb_path = tmp_path / "embedding.txt"
        save_embedding(str(emb_path), space)
        loaded = load_embedding(str(emb_path))
        assert loaded.forms == space.forms
        assert loaded.vectors.tobytes() == space.vectors.tobytes()

        # substituted MIDI parses back to exactly the substitute sequence
        beats = generate_piece(9, "minor", 16, piece_rng(ACC_SEED + 1, 9, "minor", 0))
        slices = [make_slice(b) for b in beats]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            substitutes, _ = rewrite_piece(slices, space, GeneratorConfig(top_n=5))
        notes, grid = piece_notes(beats)
        piece = parse_midi(emit_midi(MidiPiece(notes, grid), substitutes))
        assert slices_from_piece(piece) == substitutes

        # corpus and vocabulary caches reload equal and re-save byte-stable
        pieces = [slices for slices, _, _ in acc_pieces]
        vocab = acc_main["vocab"]
        corpus_a = tmp_path / "corpus_a.txt"
        corpus_b = tmp_path / "corpus_b.txt"
        save_corpus(str(corpus_a), pieces)
        reloaded_pieces = load_corpus(str(corpus_a))
        assert reloaded_pieces == pieces
        save_corpus(str(corpus_b), reloaded_pieces)
        assert corpus_a.read_bytes() == corpus_b.read_bytes()
        vocab_a = tmp_path / "vocab_a.txt"
        vocab_b = tmp_path / "vocab_b.txt"
        save_vocabulary(str(vocab_a), vocab)
        reloaded_vocab = load_vocabulary(str(vocab_a))
        assert reloaded_vocab == vocab
        save_vocabulary(str(vocab_b), reloaded_vocab)
        assert vocab_a.read_bytes() == vocab_b.read_bytes()
        ok = True
    finally:
        report(8, "save/load round-trips are exact", ok)


def test_criterion_9_pipeline_is_reproducible(tmp_path, monkeypatch, report):
    from slicevec.cli import main

    ok = False
    try:
        monkeypatch.delenv("SLICEVEC_CONFIG", raising=False)
        digests = []
        for run in ("one", "two"):
            workdir = tmp_path / run
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            assert main(
                ["synth", "--out-dir", "midi", "--keys", "C,G,F",
                 "--modes", "major", "--pieces-per-key", "2", "--bars", "10"]
            ) == 0
            assert main(
                ["ingest", "--corpus-dir", "midi", "--vocab-size", "120"]
            ) == 0
            assert main(
                ["train", "--dims", "32", "--steps", "2000",
                 "--loss-every", "500", "--batch-size", "64", "--threads", "1"]
            ) == 0
            digests.append(
                hashlib.sha256((workdir / "embedding.txt").read_bytes()).hexdigest()
            )
        assert digests[0] == digests[1]
        ok = True
    finally:
        report(9, "identical seeds give hash-identical embeddings", ok)


def test_criterion_10_reference_scale_config_runs(acc_main, report):
    ok = False
    try:
        reference = TrainingConfig(
            dims=256,
            window_c=4,
            num_skips_k=2,
            negative_samples=5,
            learning_rate=0.1,
            batch_size=128,
            steps=1_000_000,
            seed=1,
            loss_every=2000,
        )
        assert reference.steps == 1_000_000  # accepted as-is
        probe = reference.with_overrides(steps=1000, loss_every=500)
        vocab = acc_main["vocab"]
        corpus = acc_main["corpus"]
        try:
            _, trace = train(corpus, vocab, probe)
        except NumericalAbortError as exc:
            raise AssertionError(f"aborted at step {exc.step}") from exc
        assert [step for step, _ in trace.checkpoints] == [500, 1000]
        assert all(math.isfinite(loss) for _, loss in trace.checkpoints)
        ok = True
    finally:
        report(10, "reference-scale configuration trains without abort", ok)
