"""End-to-end CLI pipeline and exit-code contract."""

from __future__ import annotations

import contextlib
import glob
import hashlib
import os
import subprocess
import sys

import pytest

import slicevec
from slicevec.analysis import CIRCLE_OF_FIFTHS, SimilarityMatrix
from slicevec.cli import main
from slicevec.midi import parse_midi


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    monkeypatch.delenv("SLICEVEC_CONFIG", raising=False)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_full_pipeline(capsys):
    rc = main(
        ["synth", "--out-dir", "midi", "--keys", "all", "--modes", "major",
         "--pieces-per-key", "1", "--bars", "6"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "effective configuration:" in out
    assert "wrote 12 pieces to midi" in out
    assert sorted(os.listdir("midi"))[0] == "A_major_00.mid"

    rc = main(["ingest", "--corpus-dir", "midi", "--vocab-size", "150"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pieces: 12" in out
    assert os.path.exists("corpus.txt") and os.path.exists("vocab.txt")

    rc = main(["stats"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "vocabulary size:" in out and "most frequent slices:" in out

    rc = main(
        ["train", "--dims", "16", "--steps", "400", "--loss-every", "100",
         "--batch-size", "32"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "final checkpoint: step 400" in out
    assert os.path.exists("embedding.txt") and os.path.exists("loss.csv")

    rc = main(["analyze", "chords", "--tonics", "C,G", "--out", "chords.csv"])
    assert rc == 0
    lines = open("chords.csv").read().splitlines()
    assert lines[0] == "tonic,I,V,IV,vi,IIIb,IIb,v"
    assert lines[1].startswith("C,") and lines[2].startswith("G,")
    assert len(lines) == 3

    rc = main(["analyze", "keys", "--pieces-dir", "midi", "--out", "keys.csv"])
    assert rc == 0
    matrix = SimilarityMatrix.load_csv("keys.csv")
    assert matrix.row_labels == CIRCLE_OF_FIFTHS
    assert matrix.units == "distance"

    rc = main(["analyze", "analogy", "--roles", "I,V", "--out", "analogy.csv"])
    assert rc == 0
    angles = SimilarityMatrix.load_csv("analogy.csv")
    assert angles.units == "degrees"

    rc = main(
        ["generate", "--midi-in", "midi/C_major_00.mid", "--midi-out", "out.mid",
         "--diagnostics", "diag.csv", "--top-n", "3"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote out.mid" in out
    with open("out.mid", "rb") as fh:
        piece = parse_midi(fh.read())
    assert piece.grid.piece_length_beats == 24
    header = open("diag.csv").read().splitlines()[0]
    assert header == "beat,original,substitute,cosine_distance,top_n"


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--bogus-flag"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["train", "--dims", "not-a-number"])
    assert exc.value.code == 1


def test_missing_config_file_exits_1(capsys):
    rc = main(["stats", "--config", "nope.conf"])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_command_level_config_errors_exit_1(capsys):
    assert main(["synth", "--keys", "X", "--out-dir", "m"]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["synth", "--keys", "", "--out-dir", "m"]) == 1
    capsys.readouterr()


def test_data_errors_exit_2(capsys):
    # no caches in an empty directory
    assert main(["stats"]) == 2
    assert "missing cache file" in capsys.readouterr().err
    # empty corpus directory
    os.makedirs("empty")
    assert main(["ingest", "--corpus-dir", "empty"]) == 2
    assert "no parseable MIDI" in capsys.readouterr().err
    # generate without a trained embedding
    with open("x.mid", "wb") as fh:
        fh.write(b"not midi")
    assert main(["generate", "--midi-in", "x.mid", "--midi-out", "y.mid"]) == 2
    assert "missing embedding file" in capsys.readouterr().err


def test_bad_midi_input_exits_2(capsys):
    main(["synth", "--out-dir", "midi", "--keys", "C", "--modes", "major",
          "--pieces-per-key", "1", "--bars", "2"])
    main(["ingest", "--corpus-dir", "midi", "--vocab-size", "50"])
    main(["train", "--dims", "8", "--steps", "50", "--loss-every", "50",
          "--batch-size", "16"])
    capsys.readouterr()
    with open("garbage.mid", "wb") as fh:
        fh.write(b"MThd but not really")
    rc = main(["generate", "--midi-in", "garbage.mid", "--midi-out", "y.mid"])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def test_piece_beyond_the_beat_limit_is_a_data_error(capsys):
    # PPQ 1, one note from tick 2^28 - 2 to 2^28 - 1: 268,435,455 beats
    far = bytes.fromhex("4d546864000000060000000100014d54726b0000000f"
                        "ffffff7e903c4001803c0000ff2f00")
    main(["synth", "--out-dir", "midi", "--keys", "C", "--modes", "major",
          "--pieces-per-key", "1", "--bars", "2"])
    with open("midi/far.mid", "wb") as fh:
        fh.write(far)
    capsys.readouterr()
    assert main(["ingest", "--corpus-dir", "midi", "--vocab-size", "50"]) == 0
    skipped = [line for line in capsys.readouterr().err.splitlines() if "far.mid" in line]
    assert len(skipped) == 1 and skipped[0].startswith("skipping")
    main(["train", "--dims", "8", "--steps", "50", "--loss-every", "50",
          "--batch-size", "16"])
    capsys.readouterr()
    rc = main(["generate", "--midi-in", "midi/far.mid", "--midi-out", "y.mid"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("data error:") and err.count("\n") == 1
    assert not os.path.exists("y.mid")


def test_keys_analysis_opens_only_the_requested_mode(capsys):
    main(["synth", "--out-dir", "midi", "--keys", "all", "--modes", "major",
          "--pieces-per-key", "1", "--bars", "4"])
    main(["ingest", "--corpus-dir", "midi", "--vocab-size", "150"])
    main(["train", "--dims", "8", "--steps", "50", "--loss-every", "50",
          "--batch-size", "16"])
    with open("midi/D_minor_00.mid", "wb") as fh:
        fh.write(b"not midi")
    capsys.readouterr()
    assert main(["analyze", "keys", "--pieces-dir", "midi", "--mode", "major"]) == 0
    assert "skipping" not in capsys.readouterr().err
    assert main(["analyze", "keys", "--pieces-dir", "midi", "--mode", "minor"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("skipping") and "D_minor_00.mid" in err[0]
    assert err[1] == "data error: no minor piece with a key-labeled filename in midi parsed (1 skipped)"


# SMF format 0, PPQ 4: a note-on and note-off whose pitch byte is 0xC8, a status byte
HIGH_DATA_BYTE = bytes.fromhex("4d546864000000060000000100044d54726b0000000c"
                               "0090c840" "1080c800" "00ff2f00")


def test_data_byte_with_high_bit_is_skipped_by_ingest(capsys):
    main(["synth", "--out-dir", "midi", "--keys", "C", "--modes", "major",
          "--pieces-per-key", "1", "--bars", "2"])
    with open("midi/high.mid", "wb") as fh:
        fh.write(HIGH_DATA_BYTE)
    capsys.readouterr()
    assert main(["ingest", "--corpus-dir", "midi", "--vocab-size", "50"]) == 0
    captured = capsys.readouterr()
    assert "pieces: 1" in captured.out
    assert captured.err.splitlines() == [
        "skipping midi/high.mid: status byte where a data byte belongs at byte 24"
    ]


def test_data_byte_with_high_bit_is_a_generate_data_error(capsys):
    main(["synth", "--out-dir", "midi", "--keys", "C", "--modes", "major",
          "--pieces-per-key", "1", "--bars", "2"])
    main(["ingest", "--corpus-dir", "midi", "--vocab-size", "50"])
    main(["train", "--dims", "8", "--steps", "50", "--loss-every", "50",
          "--batch-size", "16"])
    with open("high.mid", "wb") as fh:
        fh.write(HIGH_DATA_BYTE)
    capsys.readouterr()
    assert main(["generate", "--midi-in", "high.mid", "--midi-out", "y.mid"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "data error: high.mid: status byte where a data byte belongs at byte 24"
    ]
    assert not os.path.exists("y.mid")


def test_keys_analysis_requires_labeled_files(capsys):
    main(["synth", "--out-dir", "midi", "--keys", "C", "--modes", "major",
          "--pieces-per-key", "1", "--bars", "2"])
    main(["ingest", "--corpus-dir", "midi", "--vocab-size", "50"])
    main(["train", "--dims", "8", "--steps", "50", "--loss-every", "50",
          "--batch-size", "16"])
    os.makedirs("plain")
    os.rename("midi/C_major_00.mid", "plain/piece.mid")
    capsys.readouterr()
    rc = main(["analyze", "keys", "--pieces-dir", "plain"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "skipping" in err and "no major pieces with key-labeled filenames" in err


def test_numerical_abort_exits_3(capsys):
    main(["synth", "--out-dir", "midi", "--keys", "C,G", "--modes", "major",
          "--pieces-per-key", "1", "--bars", "4"])
    main(["ingest", "--corpus-dir", "midi", "--vocab-size", "60"])
    capsys.readouterr()
    # a separate process, so that stderr holds every line a user would see,
    # numpy warnings included (pytest would capture those in-process)
    argv = ["train", "--dims", "4", "--steps", "60", "--loss-every", "20",
            "--batch-size", "4", "--learning-rate", "1e200"]
    src = os.path.dirname(os.path.dirname(slicevec.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", "import sys; from slicevec.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 3
    assert "numerical abort" in result.stderr
    assert len(result.stderr.splitlines()) == 1, result.stderr


_VOCAB = "SLICEVOCAB v1 3\n0 UNK 0\n1 0.4.7 3\n2 2.7.11 2\n"
_CORPUS = "SLICECORPUS v1 2\n0.4.7 2.7.11 0.4.7\n2.7.11 0.4.7\n"


@pytest.mark.parametrize(
    "corpus, vocab, flags, code, prefix",
    [
        (_CORPUS, _VOCAB, ["--threads", "2"], 1, "config error:"),
        (_CORPUS, "SLICEVOCAB v1 0\n", [], 2, "data error:"),
        ("SLICECORPUS v1 2\n0.4.7\n2.7.11\n", _VOCAB, [], 2, "data error:"),
        (_CORPUS + "0.4.7 2.7.11\n", _VOCAB, [], 2, "data error:"),
        (_CORPUS, _VOCAB + "3 0.3.7 1\n", [], 2, "data error:"),
        (_CORPUS[:-5], _VOCAB, [], 2, "data error:"),  # "0.4.7" cut to "0"
        (_CORPUS, _VOCAB, ["--learning-rate", "1e200"], 3,
         "numerical abort: non-finite value during batch 2, pair 0\n"),
    ],
    ids=[
        "threads-not-one", "vocab-without-unk", "no-trainable-piece",
        "corpus-trailing-line", "vocab-trailing-line", "corpus-cut-last-line",
        "diverging-learning-rate",
    ],
)
def test_train_rejects_bad_inputs_in_one_line(capsys, corpus, vocab, flags, code, prefix):
    with open("corpus.txt", "w") as fh:
        fh.write(corpus)
    with open("vocab.txt", "w") as fh:
        fh.write(vocab)
    rc = main(["train", "--dims", "4", "--steps", "5", "--batch-size", "4", *flags])
    err = capsys.readouterr().err
    assert rc == code
    assert err.startswith(prefix) and err.count("\n") == 1


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A directory holding a corpus with every tonic triad, its caches and an embedding."""
    run = tmp_path_factory.mktemp("run")
    cwd = os.getcwd()
    os.chdir(run)
    try:
        for argv in (
            ["synth", "--out-dir", "midi", "--keys", "all", "--modes", "major,minor",
             "--pieces-per-key", "1", "--bars", "4"],
            ["ingest", "--corpus-dir", "midi", "--vocab-size", "150"],
            ["train", "--dims", "8", "--steps", "50", "--loss-every", "50",
             "--batch-size", "16"],
        ):
            assert main(argv) == 0, argv
    finally:
        os.chdir(cwd)
    return run


_CACHES = ["--corpus-cache", "{run}/corpus.txt", "--vocab-cache", "{run}/vocab.txt",
           "--embedding-path", "{run}/embedding.txt"]


@pytest.mark.parametrize(
    "argv, code, prefix",
    [
        (["generate", "--midi-in", "{run}/midi/C_major_00.mid", "--midi-out", "nodir/x.mid",
          "--top-n", "2", *_CACHES], 2,
         "data error: [Errno 2] No such file or directory: 'nodir/x.mid'"),
        (["generate", "--midi-in", "{run}/midi/C_major_00.mid", "--midi-out", "x.mid",
          "--diagnostics", "nodir/d.csv", "--top-n", "2", *_CACHES], 2,
         "data error: [Errno 2] No such file or directory: 'nodir/d.csv'"),
        (["ingest", "--corpus-dir", "{run}/midi", "--corpus-cache", "c.txt",
          "--vocab-cache", "nodir/v.txt"], 2,
         "data error: [Errno 2] No such file or directory: 'nodir/v.txt'"),
        (["train", "--dims", "4", "--steps", "5", "--batch-size", "4", *_CACHES[:4],
          "--embedding-path", "e.txt", "--loss-csv", "nodir/l.csv"], 2,
         "data error: [Errno 2] No such file or directory: 'nodir/l.csv'"),
        (["analyze", "chords", "--tonics", "C", "--out", "nodir/x.csv", *_CACHES], 2,
         "data error: [Errno 2] No such file or directory: 'nodir/x.csv'"),
        (["ingest", "--corpus-dir", "{run}/midi", "--corpus-cache", "nodir/c.txt"], 2,
         "data error: [Errno 2] No such file or directory: 'nodir/c.txt'"),
        (["train", "--dims", "4", "--steps", "5", "--batch-size", "4", *_CACHES[:4],
          "--embedding-path", "nodir/e.txt"], 2,
         "data error: [Errno 2] No such file or directory: 'nodir/e.txt'"),
        (["synth", "--out-dir", "{run}/corpus.txt", "--keys", "C", "--bars", "2"], 2,
         "data error: [Errno 17] File exists: '{run}/corpus.txt'"),
        (["synth", "--out-dir", "long", "--keys", "C", "--bars", "65537"], 1,
         "config error: 65537 bars are 262148 beats, beyond the 262144-beat limit"),
        (["stats", "--config", "{run}"], 1, "config error: cannot read config file {run}:"),
        (["stats", "--config", "{run}/midi/C_major_00.mid"], 1,
         "config error: cannot read config file {run}/midi/C_major_00.mid: "
         "'utf-8' codec can't decode"),
    ],
    ids=[
        "generate-midi-out", "generate-diagnostics", "ingest-vocab-cache", "train-loss-csv",
        "analyze-out", "ingest-corpus-cache",
        "train-embedding-path", "synth-out-dir-is-a-file", "synth-beyond-beat-limit",
        "config-is-a-directory", "config-not-utf8",
    ],
)
def test_unreadable_config_and_unwritable_outputs_exit_in_one_line(
    capsys, trained_run, argv, code, prefix
):
    rc = main([arg.format(run=trained_run) for arg in argv])
    err = capsys.readouterr().err
    assert rc == code
    assert err.startswith(prefix.format(run=trained_run)) and err.count("\n") == 1, err
    assert os.listdir() == []  # no output, partial or whole, is left behind


def test_analyze_rejects_trailing_embedding_line(capsys):
    with open("embedding.txt", "w") as fh:
        fh.write("SLICEVEC v1 2 2\nUNK 0.5 0.25\n0.4.7 1.0 -1.0\n7.11.2 1.0 1.0\n")
    rc = main(["analyze", "analogy"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("data error:") and err.count("\n") == 1


def test_analyze_rejects_embedding_header_beyond_file_size(capsys):
    # 38 bytes whose header counts 10^14 values: refused before any allocation
    with open("embedding.txt", "w") as fh:
        fh.write("SLICEVEC v1 10000000 10000000\nUNK 1.0\n")
    rc = main(["analyze", "chords"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("data error:") and err.count("\n") == 1


# sha256 of the outputs of a small two-mode pipeline. Slicing, the key matrix
# and substitution have faster paths than the per-beat reference code; these
# digests were taken from that reference code and pin its bytes. The chords
# and analogy digests were taken from the per-pair scalar cosine code.
_GOLDEN_SHA256 = {
    "corpus.txt":
        "32a77bddc1f77f5ac01876f4bcbef63b6d2915eea35b2e2a9003f18225f14afd",
    "vocab.txt":
        "fccb9406b8c57a86c94f36fcfa64ec208e05a2989b77c1723aaba7f0d2235fd6",
    "keys_major.csv":
        "43f9544700293bffb233898a997ad44fe6165dd6a81df04c2f210193244b8111",
    "keys_minor.csv":
        "e59a9b893ff17240ed9cfd753983f45aed0ab0f55c4797a8ab1ed4613baca6a3",
    "chords.csv":
        "7d7d967f798a7b7783fdb6dc3d02a9d5f0d2a39d1711d212bd155a25433964df",
    "analogy.csv":
        "7e169865fe2bb9b72c61856bdd8d45fd5a3291e42f0b2a21f3de01287c60d3a5",
    "diag.csv":
        "98db57aea4f7f7cbbd5a58291d815767e031ca52052075dbbea58d4953703a92",
    "out.mid":
        "f92abb2131d0fdacf7593d3e3195188992a446ff672e6c11d515a0f269bdbafd",
    "midi/*.mid":  # the 16 synthesized files, concatenated in sorted-name order
        "0099e05b0a3b9f72d711919261daebfeeaf5f1183d5f983643218bfd55c7a00a",
}


@pytest.mark.filterwarnings("error")
def test_pipeline_outputs_keep_their_bytes(capsys):
    # (argv, the UserWarning it must raise or None)
    steps = [
        (["synth", "--out-dir", "midi", "--keys", "C,G,A,E", "--modes", "major,minor",
          "--pieces-per-key", "2", "--bars", "8", "--seed", "4"], None),
        (["ingest", "--corpus-dir", "midi", "--vocab-size", "60"], None),
        (["train", "--dims", "16", "--steps", "150", "--loss-every", "50",
          "--batch-size", "32", "--seed", "5"], None),
        (["analyze", "keys", "--pieces-dir", "midi", "--out", "keys_major.csv"], None),
        # the small vocabulary loses every slice of one minor piece's transposition
        (["analyze", "keys", "--pieces-dir", "midi", "--mode", "minor",
          "--out", "keys_minor.csv"], r"^piece 6: .* piece excluded"),
        (["analyze", "chords", "--tonics", "C,G,A,E", "--out", "chords.csv"], None),
        # six keys, B to Bb, lack their I or V slice in the small vocabulary
        (["analyze", "analogy", "--out", "analogy.csv"], r"I-V pair not measurable"),
        (["generate", "--midi-in", "midi/A_minor_01.mid", "--midi-out", "out.mid",
          "--diagnostics", "diag.csv", "--top-n", "4"], None),
    ]
    for argv, warning in steps:
        with pytest.warns(UserWarning, match=warning) if warning else contextlib.nullcontext():
            assert main(argv) == 0, argv
    capsys.readouterr()
    digests = {}
    for name in _GOLDEN_SHA256:
        digest = hashlib.sha256()
        for path in sorted(glob.glob(name)):
            with open(path, "rb") as fh:
                digest.update(fh.read())
        digests[name] = digest.hexdigest()
    assert digests == _GOLDEN_SHA256
