"""End-to-end CLI pipeline and exit-code contract."""

from __future__ import annotations

import contextlib
import glob
import hashlib
import os
import resource
import struct
import subprocess
import sys
import warnings

import pytest
from csv_readers import load_matrix

import slicevec
from slicevec.analysis import (
    CIRCLE_OF_FIFTHS,
    MINOR_ROLES,
    PC_OF_NAME,
    ChordSpec,
    chord_distance_profile,
)
from slicevec import cli
from slicevec.cli import main
from slicevec.embedding import load_embedding
from slicevec.midi import parse_midi, write_smf
from slicevec.trainer import NumericalAbortError


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
    matrix = load_matrix("keys.csv")
    assert matrix.labels == CIRCLE_OF_FIFTHS
    assert matrix.units == "distance"

    rc = main(["analyze", "analogy", "--roles", "I,V", "--out", "analogy.csv"])
    assert rc == 0
    angles = load_matrix("analogy.csv")
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


def test_ingest_lists_midi_suffixes_in_any_case(capsys):
    main(["synth", "--out-dir", "midi", "--keys", "C,G,F", "--modes", "major",
          "--pieces-per-key", "1", "--bars", "4"])
    assert main(["ingest", "--corpus-dir", "midi", "--corpus-cache", "lower.txt"]) == 0
    os.mkdir("upper")
    for name, new_name in (("C", "C_major_00.MID"), ("F", "F_major_00.Midi"), ("G", "G_major_00.mid")):
        os.rename(f"midi/{name}_major_00.mid", f"upper/{new_name}")
    with open("upper/.hidden.MID", "wb") as fh:
        fh.write(b"not midi")  # a dot-file is not listed
    capsys.readouterr()
    assert main(["ingest", "--corpus-dir", "upper", "--corpus-cache", "upper.txt"]) == 0
    captured = capsys.readouterr()
    assert "pieces: 3" in captured.out and captured.err == ""
    with open("lower.txt", "rb") as a, open("upper.txt", "rb") as b:
        assert a.read() == b.read()  # the same files in the same path order


def test_keys_analysis_lists_midi_suffixes_in_any_case(capsys):
    main(["synth", "--out-dir", "midi", "--keys", "all", "--modes", "major",
          "--pieces-per-key", "1", "--bars", "4"])
    main(["ingest", "--corpus-dir", "midi", "--vocab-size", "150"])
    main(["train", "--dims", "8", "--steps", "50", "--loss-every", "50", "--batch-size", "16"])
    assert main(["analyze", "keys", "--pieces-dir", "midi", "--out", "lower.csv"]) == 0
    os.mkdir("upper")
    for path in sorted(glob.glob("midi/*.mid")):
        os.rename(path, "upper/" + os.path.basename(path)[:-4] + ".MID")
    capsys.readouterr()
    assert main(["analyze", "keys", "--pieces-dir", "upper", "--out", "upper.csv"]) == 0
    assert capsys.readouterr().out.endswith("wrote upper.csv from 12 pieces\n")
    with open("lower.csv", "rb") as a, open("upper.csv", "rb") as b:
        assert a.read() == b.read()


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


@pytest.mark.parametrize(
    "flags",
    [
        ["--dims", "100000000"],
        ["--batch-size", "1000000000", "--dims", "8"],
        ["--dims", str(1 << 62)],  # more bytes than an address space holds
        ["--batch-size", str(1 << 62), "--dims", "8"],
    ],
)
def test_a_setting_that_outgrows_memory_exits_4_in_one_line(capsys, flags):
    main(["synth", "--out-dir", "midi", "--keys", "C,G", "--modes", "major",
          "--pieces-per-key", "1", "--bars", "4"])
    main(["ingest", "--corpus-dir", "midi"])
    capsys.readouterr()
    # the child's address space is capped at 1 GiB, so the embedding matrix or the
    # batch array, each several GiB, is refused at allocation and never touches memory
    cap = 1 << 30
    src = os.path.dirname(os.path.dirname(slicevec.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", "import sys; from slicevec.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "train", *flags, "--steps", "1"],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert result.returncode == 4
    assert result.stderr.startswith("out of memory: "), result.stderr
    assert result.stderr.count("\n") == 1, result.stderr
    assert sorted(os.listdir()) == ["corpus.txt", "midi", "vocab.txt"]  # outputs removed


def test_a_window_wider_than_every_piece_trains_as_the_tightest_one(capsys):
    main(["synth", "--out-dir", "midi", "--keys", "C,G", "--modes", "major",
          "--pieces-per-key", "1", "--bars", "4"])
    main(["ingest", "--corpus-dir", "midi"])
    with open("corpus.txt") as fh:
        longest = max(len(line.split()) - 1 for line in fh.read().splitlines()[1:])
    common = ["--dims", "8", "--steps", "2", "--loss-every", "1", "--batch-size", "16"]
    tight = ["--window-c", str(2 * (longest - 1)), "--num-skips-k", str(longest - 1)]
    assert main(["train", *common, *tight, "--embedding-path", "tight.txt",
                 "--loss-csv", "tight.csv"]) == 0
    capsys.readouterr()
    # unclamped, the window of 2e7 positions per center asked for about 9.5 GiB
    cap = 1 << 30
    src = os.path.dirname(os.path.dirname(slicevec.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", "import sys; from slicevec.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "train", *common, "--window-c", "20000000",
         "--num-skips-k", "20000000", "--embedding-path", "wide.txt", "--loss-csv", "wide.csv"],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert result.returncode == 0, result.stderr
    for tight_path, wide_path in (("tight.txt", "wide.txt"), ("tight.csv", "wide.csv")):
        with open(tight_path, "rb") as a, open(wide_path, "rb") as b:
            assert a.read() == b.read()


def _outputs(argv, paths):
    """The bytes of each of paths after a run of argv that exits 0."""
    assert main(argv) == 0, argv
    contents = []
    for path in paths:
        with open(path, "rb") as fh:
            contents.append(fh.read())
    return contents


def test_integer_settings_at_2_to_the_62_run_as_their_tightest_value(capsys):
    """Each integer setting at 2**62 writes the bytes of the smallest value that acts the
    same, or is refused in one line. dims and batch_size at 2**62 exit 4: they are rows of
    test_a_setting_that_outgrows_memory_exits_4_in_one_line, which caps the address space;
    synth --bars 65537 exits 1, a row of the table below."""
    big = str(1 << 62)
    main(["synth", "--out-dir", "midi", "--keys", "C,G", "--modes", "major",
          "--pieces-per-key", "1", "--bars", "4"])
    caches = ["corpus.txt", "vocab.txt"]
    corpus, vocab = _outputs(["ingest", "--corpus-dir", "midi", "--vocab-size", big], caches)
    size = vocab.split(b"\n")[0].split()[2].decode()  # every distinct slice, plus UNK
    assert _outputs(["ingest", "--corpus-dir", "midi", "--vocab-size", size], caches) == [
        corpus, vocab]

    longest = max(len(line.split()) - 1 for line in corpus.decode().splitlines()[1:])
    train = ["train", "--dims", "4", "--steps", "2", "--loss-every", "1", "--batch-size", "8"]
    trained = ["embedding.txt", "loss.csv"]
    for wide, tight in (
        (["--window-c", big], ["--window-c", str(2 * (longest - 1))]),
        (["--window-c", big, "--num-skips-k", big],
         ["--window-c", str(2 * (longest - 1)), "--num-skips-k", str(longest - 1)]),
        (["--loss-every", big], ["--loss-every", "3"]),  # past the 2 steps: no checkpoint
    ):
        assert _outputs([*train, *wide], trained) == _outputs([*train, *tight], trained), wide

    forms = [line.split()[1] for line in vocab.decode().splitlines()[1:]]
    assert "R" not in forms  # so every slice of the piece has the same candidates
    pool = len(forms) - 2  # all but UNK and the query itself
    generate = ["generate", "--midi-in", "midi/C_major_00.mid", "--midi-out", "out.mid"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 2**62 asks for more candidates than there are
        wide_midi = _outputs([*generate, "--top-n", big], ["out.mid"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "only N candidates": top_n is the whole pool
        assert _outputs([*generate, "--top-n", str(pool)], ["out.mid"]) == wide_midi

    assert main([*train, "--negative-samples", "64"]) == 0
    capsys.readouterr()
    assert main([*train, "--negative-samples", "65"]) == 1
    assert capsys.readouterr().err == "config error: negative_samples must be in 1..64\n"


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
        (_CORPUS, _VOCAB, ["--dims", "1", "--steps", "2", "--loss-every", "100",
                           "--batch-size", "1", "--learning-rate", "1e200", "--window-c", "2",
                           "--num-skips-k", "1"], 3,
         "numerical abort: non-finite value during batch 1\n"),
    ],
    ids=[
        "threads-not-one", "vocab-without-unk", "no-trainable-piece",
        "corpus-trailing-line", "vocab-trailing-line", "corpus-cut-last-line",
        "diverging-learning-rate", "diverging-after-last-checkpoint",
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


def test_a_vocabulary_whose_one_slice_holds_the_noise_mass_exits_2_in_one_line(capsys):
    # 0.4.7 holds all but 1e-9 of the noise mass, so a negative that excludes it would
    # take about 1e9 draws; train refuses it before the first batch, in bounded memory
    with open("corpus.txt", "w") as fh:
        fh.write(_CORPUS)
    with open("vocab.txt", "w") as fh:
        fh.write("SLICEVOCAB v1 2\n0 UNK 0\n1 0.4.7 1000000000000\n")
    cap = 1 << 30
    src = os.path.dirname(os.path.dirname(slicevec.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", "import sys; from slicevec.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "train", "--dims", "4", "--steps", "5",
         "--batch-size", "4"],
        env=env, capture_output=True, text=True, timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert result.returncode == 2
    assert result.stderr.startswith("data error: 0.4.7 holds 1 - 1e-09 of the noise mass: ")
    assert result.stderr.count("\n") == 1, result.stderr
    assert sorted(os.listdir()) == ["corpus.txt", "vocab.txt"]  # outputs removed


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
        (["synth", "--out-dir", "neg", "--keys", "C", "--bars", "2", "--seed", "-1"], 1,
         "config error: seed must be >= 0 for synth, not -1"),
        (["synth", "--out-dir", "m", "--keys", ""], 1,
         "config error: key list must not be empty"),
        (["synth", "--out-dir", "m", "--modes", ","], 1,
         "config error: mode list must not be empty"),
        (["synth", "--out-dir", "zero", "--keys", "C", "--bars", "0"], 1,
         "config error: bars must be >= 1, not 0"),
        (["synth", "--out-dir", "minus", "--keys", "C", "--bars", "-1"], 1,
         "config error: bars must be >= 1, not -1"),
        (["stats", "--config", "{run}"], 1, "config error: cannot read config file {run}:"),
        (["stats", "--config", "{run}/midi/C_major_00.mid"], 1,
         "config error: cannot read config file {run}/midi/C_major_00.mid: "
         "'utf-8' codec can't decode"),
    ],
    ids=[
        "generate-midi-out", "generate-diagnostics", "ingest-vocab-cache", "train-loss-csv",
        "analyze-out", "ingest-corpus-cache",
        "train-embedding-path", "synth-out-dir-is-a-file", "synth-beyond-beat-limit",
        "synth-negative-seed", "synth-empty-keys", "synth-empty-modes",
        "synth-zero-bars", "synth-negative-bars", "config-is-a-directory", "config-not-utf8",
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


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "analogy", "--out", "{run}/embedding.txt", *_CACHES],
        ["analyze", "chords", "--out", "{run}/../{runname}/corpus.txt", *_CACHES],
        ["analyze", "keys", "--pieces-dir", "{run}/midi", "--out", "loss.csv", *_CACHES],
        ["generate", "--midi-in", "{run}/midi/C_major_00.mid", "--midi-out", "{run}/vocab.txt",
         *_CACHES],
        ["generate", "--midi-in", "{run}/midi/C_major_00.mid", "--midi-out", "x.mid",
         "--diagnostics", "./x.mid", *_CACHES],
        ["train", "--dims", "4", "--steps", "5", *_CACHES[:4],
         "--embedding-path", "{run}/./corpus.txt"],
        ["ingest", "--corpus-dir", "{run}/midi", "--corpus-cache", "{run}/corpus.txt",
         "--vocab-cache", "{run}/../{runname}/corpus.txt"],
    ],
    ids=["analyze-over-embedding", "analyze-over-corpus", "analyze-over-loss-csv",
         "generate-over-vocab", "generate-diagnostics-over-midi-out",
         "train-embedding-over-corpus", "ingest-vocab-over-corpus"],
)
def test_outputs_naming_a_cache_or_each_other_exit_1(capsys, trained_run, argv):
    def digests():
        return {name: hashlib.sha256((trained_run / name).read_bytes()).hexdigest()
                for name in ("corpus.txt", "vocab.txt", "embedding.txt")}

    before = digests()
    rc = main([arg.format(run=trained_run, runname=trained_run.name) for arg in argv])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error: output ") and err.count("\n") == 1, err
    assert os.listdir() == []
    assert digests() == before


def test_train_opens_its_outputs_before_it_trains(capsys, trained_run, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("train() ran although an output cannot be written")

    monkeypatch.setattr(cli, "train", unreachable)
    argv = ["train", *_CACHES[:4], "--embedding-path", "nodir/e.txt"]
    rc = main([arg.format(run=trained_run) for arg in argv])
    assert rc == 2
    assert capsys.readouterr().err.startswith("data error: [Errno 2] No such file")
    assert os.listdir() == []  # loss.csv, opened first, is removed again


def test_failed_training_removes_only_the_outputs_it_created(capsys, trained_run, monkeypatch):
    def diverge(*args, **kwargs):
        raise NumericalAbortError(1, -1)

    monkeypatch.setattr(cli, "train", diverge)
    with open("loss.csv", "w") as fh:
        fh.write("kept\n")
    rc = main([arg.format(run=trained_run) for arg in ["train", *_CACHES[:4]]])
    assert rc == 3
    assert capsys.readouterr().err == "numerical abort: non-finite value during batch 1\n"
    assert os.listdir() == ["loss.csv"]  # no empty embedding.txt is left behind
    assert open("loss.csv").read() == "kept\n"


def _embedding(rows):
    dims = len(next(iter(rows.values())))
    lines = [f"SLICEVEC v1 {len(rows)} {dims}"]
    lines += [form + "".join(f" {v!r}" for v in vec) for form, vec in rows.items()]
    return "\n".join(lines) + "\n"


_ZERO_TONIC = _embedding({"UNK": (1.0, 0.0), "0.4.7": (0.0, 0.0), "2.7.11": (0.0, 1.0)})
_EQUAL_I_V = _embedding(
    {"UNK": (1.0, 0.0), "0.4.7": (0.0, 1.0), "2.7.11": (0.0, 1.0), "2.6.9": (1.0, 1.0)}
)


def _scale_embedding(src, dst, factor):
    with open(src) as fh:
        header, *rows = fh.read().splitlines()
    scaled = [" ".join([form, *(repr(float(v) * factor) for v in values)])
              for form, *values in (row.split() for row in rows)]
    with open(dst, "w") as fh:
        fh.write("\n".join([header, *scaled]) + "\n")


_MEASURING = {
    "chords": ["analyze", "chords", "--out", "out.csv"],
    "keys": ["analyze", "keys", "--pieces-dir", "{run}/midi", "--out", "out.csv"],
    "analogy": ["analyze", "analogy", "--out", "out.csv"],
    "generate": ["generate", "--midi-in", "{run}/midi/C_major_00.mid", "--midi-out", "out.mid"],
}


@pytest.mark.parametrize("which", list(_MEASURING))
def test_an_embedding_whose_squared_norms_overflow_exits_2_in_one_line(
    capsys, trained_run, which
):
    # at 1e160 every squared norm overflows to inf, which no cosine can be taken from
    _scale_embedding(f"{trained_run}/embedding.txt", "big.txt", 1e160)
    argv = [arg.format(run=trained_run) for arg in _MEASURING[which]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        rc = main([*argv, "--corpus-cache", f"{trained_run}/corpus.txt",
                   "--embedding-path", "big.txt"])
    assert rc == 2
    assert capsys.readouterr().err == "data error: big.txt: vector of UNK is too large to measure\n"
    assert os.listdir() == ["big.txt"]


def test_an_embedding_scaled_by_1e150_keeps_the_chord_and_analogy_bytes(capsys, trained_run):
    _scale_embedding(f"{trained_run}/embedding.txt", "e150.txt", 1e150)
    for which in ("chords", "analogy"):
        outputs = []
        for embedding in (f"{trained_run}/embedding.txt", "e150.txt"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([*_MEASURING[which], "--embedding-path", embedding]) == 0
            with open("out.csv", "rb") as fh:
                outputs.append(fh.read())
        assert outputs[0] == outputs[1], which


def test_analyze_chords_minor_quality(capsys):
    # C minor's i and v (0.3.7, 2.7.10) and A minor's i (0.4.9); A minor's v (4.7.11) is absent
    with open("embedding.txt", "w") as fh:
        fh.write(_embedding({"UNK": (1.0, 0.0, 0.5), "0.3.7": (0.25, 2.0, -1.0),
                             "2.7.10": (-3.0, 5.5, 0.125), "0.4.9": (1.5, 0.75, 2.0)}))
    assert main(["analyze", "chords", "--quality", "minor", "--tonics", "C,A"]) == 0
    assert capsys.readouterr().err == "warning: v of A is not in the vocabulary\n"
    space = load_embedding("embedding.txt")
    lines = open("chords.csv").read().splitlines()
    assert lines[0] == "tonic,i,v" and len(lines) == 3
    for line, name in zip(lines[1:], ("C", "A")):
        profile = chord_distance_profile(space, ChordSpec(PC_OF_NAME[name], "minor"), MINOR_ROLES)
        cells = ["" if profile[role] is None else f"{profile[role]:.6g}" for role in MINOR_ROLES]
        assert line == ",".join([name, *cells])
    assert lines[2] == "A,0,"  # the tonic's own distance, then the empty v cell


_C_MAJOR_CHORD = write_smf([(60, 0, 480, 0), (64, 0, 480, 0), (67, 0, 480, 0)], 480)
# PPQ 0x7FFF; the note-on lies two MAX_VARLEN deltas (around a text event) in,
# a silence that the rewritten file splits the same way
_SILENT_TRACK = (b"\xff\xff\xff\x7f\xff\x01\x00" + b"\xff\xff\xff\x7f\x90\x3c\x40"
                 + b"\x01\x80\x3c\x00" + b"\x00\xff\x2f\x00")
_LONG_SILENCE = (b"MThd" + struct.pack(">IHHH", 6, 0, 1, 0x7FFF)
                 + b"MTrk" + struct.pack(">I", len(_SILENT_TRACK)) + _SILENT_TRACK)


@pytest.mark.parametrize(
    "files, argv, code, prefix",
    [
        ({"embedding.txt": _ZERO_TONIC}, ["analyze", "chords", "--tonics", "C"], 2,
         "data error: cosine is undefined for a zero vector"),
        ({"embedding.txt": _EQUAL_I_V}, ["analyze", "analogy"], 2,
         "data error: pair vector is zero"),
        ({"embedding.txt": _ZERO_TONIC, "in.mid": _C_MAJOR_CHORD},
         ["generate", "--midi-in", "in.mid", "--midi-out", "out.mid"], 2,
         "data error: cosine is undefined for a zero vector"),
        ({"embedding.txt": _ZERO_TONIC, "in.mid": _LONG_SILENCE},
         ["generate", "--midi-in", "in.mid", "--midi-out", "out.mid"], 0, None),
        ({}, ["ingest", "--dims", "0"], 1, "config error: dims must be >= 1"),
        ({"top.cfg": "top_n = 0\n"}, ["stats", "--config", "top.cfg"], 1,
         "config error: top_n must be >= 1"),
    ],
    ids=[
        "chords-zero-tonic", "analogy-equal-rows", "generate-zero-row",
        "generate-unencodable-silence", "ingest-dims-0", "stats-config-top-n-0",
    ],
)
def test_measured_inputs_and_settings_fail_in_one_line(capsys, files, argv, code, prefix):
    for name, content in files.items():
        with open(name, "wb" if isinstance(content, bytes) else "w") as fh:
            fh.write(content)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # roles missing from the tiny vocabulary
        rc = main(argv)
    err = capsys.readouterr().err
    assert rc == code
    assert "Traceback" not in err
    if code == 0:  # a rewrite that substitutes nothing keeps every note
        with open("out.mid", "rb") as out, open("in.mid", "rb") as inp:
            assert parse_midi(out.read()).notes.tolist() == parse_midi(inp.read()).notes.tolist()
        return
    assert err.splitlines()[-1].startswith(prefix)
    assert not os.path.exists("out.mid")


def test_analyze_chords_names_a_missing_tonic_unquoted(capsys):
    with open("embedding.txt", "w") as fh:
        fh.write(_embedding({"UNK": (1.0, 0.0), "2.7.11": (0.0, 1.0), "2.6.9": (1.0, 1.0)}))
    assert main(["analyze", "chords", "--tonics", "C"]) == 2
    assert capsys.readouterr().err == "data error: tonic slice 0.4.7 is not in the vocabulary\n"
    assert not os.path.exists("chords.csv")


def test_generate_on_a_piece_with_no_notes_writes_empty_outputs(capsys):
    with open("embedding.txt", "w") as fh:
        fh.write(_EQUAL_I_V)
    with open("in.mid", "wb") as fh:
        fh.write(write_smf([], 480))
    argv = ["generate", "--midi-in", "in.mid", "--midi-out", "out.mid", "--diagnostics", "diag.csv"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "substituted 0 of 0 beats; wrote out.mid"
    assert open("diag.csv").read().splitlines() == ["beat,original,substitute,cosine_distance,top_n"]
    with open("out.mid", "rb") as fh:
        piece = parse_midi(fh.read())
    assert len(piece.notes) == 0 and piece.grid.piece_length_beats == 0


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
# and analogy digests were taken from the per-pair scalar cosine code. The
# corpus.txt digest is of the v2 cache, whose lines lead with each file's
# sha256; with those tokens stripped it is the v1 file the reference wrote.
_GOLDEN_SHA256 = {
    "corpus.txt":
        "d57a6eadcbaac9ea9c35125bc66f517e4297aa605cb3b611816c3c40fddc94b8",
    "vocab.txt":
        "fccb9406b8c57a86c94f36fcfa64ec208e05a2989b77c1723aaba7f0d2235fd6",
    "embedding.txt":
        "b0a6103152f5660a706aeb0311b3160258272faaecedfce6a037558d1686b899",
    "loss.csv":
        "61e14d9536e194637ef3437671f8149e03334570adf13cbba49021de75f79ee7",
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
