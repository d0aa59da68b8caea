"""Self-tests of the benchmark's output checks, on a tiny corpus (a few seconds).

    python3 -m pytest -q slicebench/test_checks.py

Every check must accept the program's real output and reject a corrupted copy.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
os.environ.setdefault("SLICEVEC_BACKEND", "numpy")

import checks  # noqa: E402
from layers import PER_LAYER, Tracer  # noqa: E402
from run import END_TO_END  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS, generated_names  # noqa: E402
from worker import Pass, run_cli  # noqa: E402

SEED = 5
TINY = replace(
    WORKLOADS["accept"], name="tiny", pieces_per_key=1, bars=4, dims=8, steps=300,
    loss_every=100, generate=("C_major_00.mid",),
)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A work directory holding one real pipeline pass over the tiny corpus."""
    from slicevec import cli

    from workloads import synth_argv

    work = tmp_path_factory.mktemp("tiny")
    old = os.getcwd()
    os.chdir(work)
    try:
        assert run_cli(cli, synth_argv(TINY, SEED)) is None
        with SpeedProbe() as probe:
            p = Pass(cli, TINY, SEED, probe)
            p.run()
        assert p.failures == []
    finally:
        os.chdir(old)
    pieces = checks.expected_pieces(TINY, SEED)
    forms, vecs = checks.parse_embedding((work / "embedding.txt").read_text())
    return work, pieces, forms, vecs


def read(work, name):
    return (work / name).read_text()


def test_real_output_passes_every_check(outputs):
    work = outputs[0]
    results = checks.check_all(str(work), TINY, SEED)
    assert set(results) == {
        "corpus", "vocab", "embedding", "loss", "chords", "keys", "analogy", "diag", "generated_midi",
    }
    assert all(errors == [] for errors in results.values()), results


def test_corpus_rejects_a_changed_beat(outputs):
    work, pieces, _, _ = outputs
    lines = read(work, "corpus.txt").split("\n")
    tokens = lines[1].split()
    tokens[3] = "0.1.2" if tokens[3] != "0.1.2" else "0.1.3"
    lines[1] = " ".join(tokens)
    assert checks.check_corpus("\n".join(lines), pieces)


def test_vocab_rejects_a_wrong_count_and_order(outputs):
    work, pieces, _, _ = outputs
    forms, counts = checks.expected_vocab(pieces, TINY.vocab_size)
    text = read(work, "vocab.txt")
    assert checks.check_vocab(text, forms, counts) == []
    lines = text.split("\n")
    i, form, count = lines[2].split()
    lines[2] = f"{i} {form} {int(count) + 1}"
    assert checks.check_vocab("\n".join(lines), forms, counts)
    lines = text.split("\n")
    lines[2], lines[3] = lines[3], lines[2]
    assert checks.check_vocab("\n".join(lines), forms, counts)


def test_embedding_rejects_a_non_finite_value(outputs):
    work, _, forms, _ = outputs
    lines = read(work, "embedding.txt").split("\n")
    parts = lines[2].split()
    parts[1] = "nan"
    lines[2] = " ".join(parts)
    assert checks.check_embedding("\n".join(lines), forms, TINY.dims)


def test_loss_rejects_a_rising_trace(outputs):
    work = outputs[0]
    rows = list(csv.reader(io.StringIO(read(work, "loss.csv"))))
    values = [r[1] for r in rows[1:]][::-1]
    rising = "step,avg_loss\n" + "".join(f"{r[0]},{v}\n" for r, v in zip(rows[1:], values))
    assert checks.check_loss(rising, TINY.loss_every, TINY.steps)


def _replace_cell(text: str, row: int, col: int, value: str, skip: int = 0) -> str:
    head, body = text.splitlines()[:skip], text.splitlines()[skip:]
    rows = list(csv.reader(body))
    rows[row][col] = value
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return "\n".join(head + [out.getvalue()])


def test_chords_rejects_a_changed_distance(outputs):
    work, _, forms, vecs = outputs
    text = read(work, "chords.csv")
    rows = list(csv.reader(io.StringIO(text)))
    col = next(j for j, cell in enumerate(rows[1]) if j > 1 and cell)
    bumped = _replace_cell(text, 1, col, f"{float(rows[1][col]) * 1.001:.6g}")
    assert checks.check_chords(bumped, forms, vecs)


def test_keys_rejects_an_asymmetric_matrix(outputs):
    work, pieces, forms, vecs = outputs
    text = read(work, "keys.csv")
    rows = list(csv.reader(io.StringIO(text)))
    asymmetric = _replace_cell(text, 1, 2, f"{float(rows[1][2]) * 1.5:.6g}")
    errors = checks.check_keys(asymmetric, pieces, forms, vecs)
    assert any("not symmetric" in e for e in errors)


def test_keys_and_analogy_reject_a_nonzero_diagonal(outputs):
    work, pieces, forms, vecs = outputs
    assert checks.check_keys(_replace_cell(read(work, "keys.csv"), 3, 3, "0.5"), pieces, forms, vecs)
    analogy = _replace_cell(read(work, "analogy.csv"), 3, 3, "1", skip=1)
    assert checks.check_analogy(analogy, forms, vecs)


def test_analogy_rejects_a_changed_angle(outputs):
    work, _, forms, vecs = outputs
    text = read(work, "analogy.csv")
    rows = list(csv.reader(io.StringIO(text.split("\n", 1)[1])))
    col = next(j for j, cell in enumerate(rows[1]) if j > 1 and cell)
    both = _replace_cell(text, 1, col, f"{float(rows[1][col]) + 0.01:.6g}", skip=1)
    both = _replace_cell(both, col, 1, f"{float(rows[1][col]) + 0.01:.6g}", skip=1)
    assert checks.check_analogy(both, forms, vecs)


def test_diag_rejects_a_swapped_substitute(outputs):
    work, pieces, forms, vecs = outputs
    piece = next(p for p in pieces if p.name == TINY.generate[0])
    _, diag = generated_names(piece.name)
    text = read(work, diag)
    rows = list(csv.reader(io.StringIO(text)))
    beat = next(i for i, r in enumerate(rows[1:], 1) if r[3])
    other = next(f for f in forms if f not in ("UNK", "R", rows[beat][1], rows[beat][2]))
    swapped = _replace_cell(text, beat, 2, other)
    errors = checks.check_diag(swapped, piece, forms, vecs, TINY.top_n)
    assert any("substitutes" in e for e in errors)


def test_generated_midi_rejects_the_unchanged_input(outputs):
    work = outputs[0]
    midi_out, diag = generated_names(TINY.generate[0])
    diag_text = read(work, diag)
    assert checks.check_generated_midi((work / midi_out).read_bytes(), diag_text, midi_out) == []
    rows = list(csv.reader(io.StringIO(diag_text)))[1:]
    assert any(r[1] != r[2] for r in rows), "the tiny piece should have changed beats"
    original = (work / "corpus" / TINY.generate[0]).read_bytes()
    assert checks.check_generated_midi(original, diag_text, midi_out)


def test_agrees6_reads_six_significant_digits():
    assert checks.agrees6("0.0256725", 0.02567251)
    assert checks.agrees6("0.0256726", 0.02567255)
    assert not checks.agrees6("0.0256727", 0.02567251)
    assert checks.agrees6("", float("nan"))
    assert not checks.agrees6("", 0.1)


def test_speed_probe_passes_results_through_and_disarms_its_timer():
    import signal
    import time

    with SpeedProbe() as probe:
        result, seconds, wall = probe.timed(lambda: time.sleep(0.2) or "done")
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert result == "done"
    assert wall >= 0.2 and 0.0 < seconds < 10 * wall
    assert len(probe.samples) > 3  # the timer sampled during the call


def test_tracer_reports_self_time_and_restores_names():
    import types

    def f(x):
        return x + 1

    mod = types.SimpleNamespace(f=f)
    tracer = Tracer()
    tracer.wrap(mod, "f", "inner", count=lambda r: r)
    tracer.wrap(mod, "missing", "nothing")
    with tracer.span("outer"):
        assert mod.f(2) == 3
    summary = tracer.summary([(0, len(tracer.spans))])
    assert summary["calls"] == {"outer": 1, "inner": 1}
    assert summary["self"]["outer"] == pytest.approx(
        summary["inclusive"]["outer"] - summary["inclusive"]["inner"]
    )
    assert tracer.counts["inner"] == 3
    assert len(tracer.unwrapped) == 1 and tracer.unwrapped[0].endswith(".missing")
    tracer.unwrap_all()
    assert mod.f is f


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
