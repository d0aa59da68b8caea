"""Extreme values in the caches and the embedding: every command ends promptly, in bounded
memory, with its documented exit code and only one-line messages on stderr."""

from __future__ import annotations

import os
import resource
import subprocess
import sys

import pytest

import slicevec
from slicevec.midi import write_smf

BIG = 2**63 - 1
_SRC = os.path.dirname(os.path.dirname(slicevec.__file__))
_CAP = 1 << 30
_MAJOR_TRIADS = ("0.4.7", "1.5.8", "2.6.9", "3.7.10", "4.8.11", "0.5.9",
                 "1.6.10", "2.7.11", "0.3.8", "1.4.9", "2.5.10", "3.6.11")

STATS = ["stats"]
TRAIN = ["train", "--dims", "4", "--steps", "5", "--batch-size", "8", "--loss-every", "5"]
CHORDS = ["analyze", "chords"]
KEYS = ["analyze", "keys", "--pieces-dir", "."]
ANALOGY = ["analyze", "analogy"]
GENERATE = ["generate", "--midi-in", "C_major_00.mid", "--midi-out", "out.mid"]


def _corpus(*pieces: str) -> str:
    return "".join([f"SLICECORPUS v1 {len(pieces)}\n", *(f"{piece}\n" for piece in pieces)])


def _vocab(unk: int, *counts: tuple[str, int]) -> str:
    lines = [f"SLICEVOCAB v1 {len(counts) + 1}", f"0 UNK {unk}"]
    lines += [f"{i} {form} {count}" for i, (form, count) in enumerate(counts, start=1)]
    return "\n".join(lines) + "\n"


def _embedding(value: float) -> str:
    """UNK and the 12 major triads in 2 dims, every value +-value."""
    rows = [("UNK", (value, value))]
    rows += [(form, (value, -value) if i % 2 else (-value, value))
             for i, form in enumerate(_MAJOR_TRIADS)]
    lines = [f"SLICEVEC v1 {len(rows)} 2"] + [f"{form} {a!r} {b!r}" for form, (a, b) in rows]
    return "\n".join(lines) + "\n"


_CORPUS = _corpus("0.4.7 2.7.11 0.4.7", "2.7.11 0.4.7")
_VOCAB = _vocab(1, ("0.4.7", 3), ("2.7.11", 2))


def _setup(run, corpus: str, vocab: str, embedding: str | None = None) -> None:
    files = {"corpus.txt": corpus, "vocab.txt": vocab}
    if embedding is not None:
        files["embedding.txt"] = embedding
    for name, text in files.items():
        (run / name).write_text(text)
    # a 2-beat C major triad, so that analyze keys finds a key-named file
    (run / "C_major_00.mid").write_bytes(
        write_smf([(60, 0, 960, 0), (64, 0, 960, 0), (67, 0, 960, 0)], 480))


def _slicevec(run, argv: list[str]) -> subprocess.CompletedProcess:
    """argv run by the CLI in a fresh process under a 1 GiB address-space cap; its stderr
    holds only one-line messages, and a data error comes last."""
    result = subprocess.run(
        [sys.executable, "-c", "import sys; from slicevec.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        cwd=run, capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=_SRC, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (_CAP, _CAP)),
    )
    lines = result.stderr.splitlines()
    for line in lines:
        assert line.startswith(("warning: ", "skipping ", "data error: ")), (argv, result.stderr)
    assert not any(line.startswith("data error: ") for line in lines[:-1]), result.stderr
    return result


def _expect(run, argv: list[str], code: int, error: str | None = None) -> str:
    """Run argv, check its exit code and, given error, its data error line; its stderr."""
    result = _slicevec(run, argv)
    assert result.returncode == code, (argv, result.stderr)
    if error is not None:
        assert result.stderr.splitlines()[-1].startswith(f"data error: {error}"), result.stderr
    return result.stderr


def test_every_count_0_1_or_the_largest_trains_the_same_bytes(tmp_path):
    trained = []
    for count in (0, 1, BIG):
        run = tmp_path / str(count)
        run.mkdir()
        _setup(run, _CORPUS, _vocab(count, ("0.4.7", count), ("2.7.11", count)))
        _expect(run, STATS, 0)
        _expect(run, TRAIN, 0)
        trained.append([(run / name).read_bytes() for name in ("embedding.txt", "loss.csv")])
    assert trained[0] == trained[1] == trained[2]


@pytest.mark.parametrize("form, vocab", [("UNK", _vocab(BIG, ("0.4.7", 3), ("2.7.11", 2))),
                                         ("0.4.7", _vocab(1, ("0.4.7", BIG), ("2.7.11", 2)))])
def test_a_count_of_the_largest_beside_small_ones_is_refused(tmp_path, form, vocab):
    _setup(tmp_path, _CORPUS, vocab)
    _expect(tmp_path, STATS, 0)
    err = _expect(tmp_path, TRAIN, 2, f"{form} holds 1 - ")
    assert err.endswith(" of the noise mass: each negative that excludes it needs over "
                        "1,024 draws\n")
    assert sorted(os.listdir(tmp_path)) == ["C_major_00.mid", "corpus.txt", "vocab.txt"]


def test_a_single_content_token_trains_and_each_analysis_ends(tmp_path):
    _setup(tmp_path, _corpus("0.4.7 0.4.7 0.4.7", "0.4.7 0.4.7"), _vocab(0, ("0.4.7", 5)))
    _expect(tmp_path, STATS, 0)
    _expect(tmp_path, TRAIN, 0)
    _expect(tmp_path, CHORDS, 2, "tonic slice 2.7.11 is not in the vocabulary")
    _expect(tmp_path, KEYS, 2, "every piece was excluded")
    assert "warning: key " in _expect(tmp_path, ANALOGY, 0)
    assert "warning: " in _expect(tmp_path, GENERATE, 0)


@pytest.mark.parametrize("pieces", [("",), ("0.4.7",), ("", "2.7.11")], ids=["0", "1", "0-and-1"])
def test_pieces_of_fewer_than_2_tokens_are_counted_but_not_trained(tmp_path, pieces):
    _setup(tmp_path, _corpus(*pieces), _VOCAB)
    _expect(tmp_path, STATS, 0)
    _expect(tmp_path, TRAIN, 2, "corpus has no piece with at least 2 tokens")


def test_a_piece_of_2_tokens_trains(tmp_path):
    _setup(tmp_path, _corpus("0.4.7 2.7.11"), _VOCAB)
    _expect(tmp_path, TRAIN, 0)


@pytest.mark.parametrize(
    "value, error",
    [(1e-300, "embedding.txt: vector of UNK is too small to measure"),  # each square is 0
     (1e300, "embedding.txt: vector of UNK is too large to measure"),
     (sys.float_info.max, "embedding.txt: vector of UNK is too large to measure")],
    ids=["1e-300", "1e300", "largest"],
)
def test_an_embedding_too_small_or_too_large_to_measure_is_refused(tmp_path, value, error):
    _setup(tmp_path, _CORPUS, _VOCAB, _embedding(value))
    for argv in (CHORDS, KEYS, ANALOGY, GENERATE):
        _expect(tmp_path, argv, 2, error)
    assert not os.path.exists(tmp_path / "out.mid")
