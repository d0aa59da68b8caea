"""`analyze keys`: slices reused from the corpus cache by file digest, and the
key matrix's blocked per-transposition sums against the per-transposition
reference."""

from __future__ import annotations

import os
import random
import shutil
import warnings

import numpy as np
import pytest
from test_analysis import _per_transposition_key_values
from test_midi_reader import EOT, chunk, header

from slicevec import analysis, cli, midi
from slicevec.cli import main
from slicevec.embedding import EmbeddingSpace
from slicevec.slicer import Slice, load_corpus, save_corpus

# the golden pipeline's corpus: with vocabulary 60, minor piece 6 loses a
# whole transposition to UNK and is excluded with a warning
_SYNTH = ["synth", "--out-dir", "midi", "--keys", "C,G,A,E", "--modes", "major,minor",
          "--pieces-per-key", "2", "--bars", "8", "--seed", "4"]
_EXCLUDED = {"major": None, "minor": r"^piece 6: .* piece excluded"}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A synthesized corpus, its v2 caches, a v1 copy of corpus.txt and an embedding."""
    run = tmp_path_factory.mktemp("keys")
    cwd = os.getcwd()
    os.chdir(run)
    try:
        for argv in (
            _SYNTH,
            ["ingest", "--corpus-dir", "midi", "--vocab-size", "60"],
            ["train", "--dims", "16", "--steps", "150", "--loss-every", "50",
             "--batch-size", "32", "--seed", "5"],
        ):
            assert main(argv) == 0, argv
        save_corpus("corpus_v1.txt", load_corpus("corpus.txt"))
    finally:
        os.chdir(cwd)
    return run


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


@pytest.fixture
def parsed(monkeypatch):
    """The bytes the CLI hands to read_pieces, in order; a cached file goes as None."""
    calls = []
    real = cli.read_pieces

    def counting(datas):
        for data in datas:
            if isinstance(data, bytes):
                calls.append(data)
            yield data

    monkeypatch.setattr(cli, "read_pieces", lambda datas: real(counting(datas)))
    return calls


def _keys(run, mode, corpus_cache, pieces_dir=None, out="keys.csv"):
    """Run analyze keys and return (exit code, output bytes)."""
    argv = ["analyze", "keys", "--pieces-dir", pieces_dir or f"{run}/midi", "--mode", mode,
            "--out", out, "--corpus-cache", corpus_cache,
            "--vocab-cache", f"{run}/vocab.txt", "--embedding-path", f"{run}/embedding.txt"]
    match = _EXCLUDED[mode]
    with pytest.warns(UserWarning, match=match) if match else warnings.catch_warnings():
        if not match:
            warnings.simplefilter("error")
        rc = main(argv)
    return rc, open(out, "rb").read() if rc == 0 else None


@pytest.mark.parametrize("mode", ["major", "minor"])
def test_keys_csv_is_the_same_from_the_cache_a_v1_cache_and_no_cache(run_dir, parsed, mode):
    outputs = {}
    for name, cache, n_parsed in [
        ("v2", f"{run_dir}/corpus.txt", 0),
        ("v1", f"{run_dir}/corpus_v1.txt", 8),
        ("none", f"{run_dir}/absent.txt", 8),
    ]:
        parsed.clear()
        rc, outputs[name] = _keys(run_dir, mode, cache)
        assert rc == 0
        assert len(parsed) == n_parsed, name
    assert outputs["v2"] == outputs["v1"] == outputs["none"]


@pytest.mark.parametrize("chunk_bytes", [1, midi._CHUNK_BYTES])
def test_only_a_file_rewritten_after_ingest_is_parsed(run_dir, parsed, capsys, monkeypatch,
                                                      chunk_bytes):
    """Cache hits, a miss, a corrupt file and a path that does not read, in one directory."""
    monkeypatch.setattr(midi, "_CHUNK_BYTES", chunk_bytes)
    shutil.copytree(run_dir / "midi", "midi")
    assert main(["synth", "--out-dir", "other", "--keys", "C", "--modes", "major",
                 "--pieces-per-key", "1", "--bars", "8", "--seed", "9"]) == 0
    edited = open("other/C_major_00.mid", "rb").read()
    with open("midi/C_major_00.mid", "wb") as fh:
        fh.write(edited)
    corrupt = header(0, 1, 4) + chunk(b"MTrk", b"\x00\x90\x3c\xc0" + EOT)
    with open("midi/C_major_00b.mid", "wb") as fh:  # sorts between two good files
        fh.write(corrupt)
    os.mkdir("midi/G_major_00b.mid")  # a path that does not read
    capsys.readouterr()
    parsed.clear()
    rc, cached = _keys(run_dir, "major", f"{run_dir}/corpus.txt", "midi", "cached.csv")
    err = capsys.readouterr().err.splitlines()
    assert rc == 0
    assert parsed == [edited, corrupt]
    assert err[0] == "skipping midi/C_major_00b.mid: status byte where a data byte belongs at byte 25"
    assert err[1].startswith("skipping midi/G_major_00b.mid: ")
    assert len(err) == 2
    rc, fresh = _keys(run_dir, "major", f"{run_dir}/absent.txt", "midi", "fresh.csv")
    assert rc == 0
    rc, original = _keys(run_dir, "major", f"{run_dir}/absent.txt", out="original.csv")
    assert cached == fresh != original


def test_a_directory_name_is_no_glob_pattern(run_dir):
    shutil.copytree(run_dir / "midi", "corp[a]")
    shutil.copy("corp[a]/C_major_00.mid", "corp[a]/.C_major_00.mid")  # a dot-file is not read
    rc, escaped = _keys(run_dir, "major", f"{run_dir}/absent.txt", "corp[a]", "escaped.csv")
    assert rc == 0
    assert escaped == _keys(run_dir, "major", f"{run_dir}/absent.txt", out="plain.csv")[1]
    assert main(["ingest", "--corpus-dir", "corp[a]", "--vocab-size", "60"]) == 0
    for cache in ("corpus.txt", "vocab.txt"):
        assert open(cache, "rb").read() == open(run_dir / cache, "rb").read()


def test_a_key_labeled_name_reads_in_every_listed_suffix(run_dir, monkeypatch, capsys):
    """.MID and .midi files are listed as MIDI and read for their key like .mid files."""
    roots = []
    real = analysis.key_similarity_matrix

    def recording(space, labeled, mode):
        roots.append([root for _, root in labeled])
        return real(space, labeled, mode)

    monkeypatch.setattr(analysis, "key_similarity_matrix", recording)
    for directory, names in [("plain", ["C_major_00.mid", "G_major_00.mid"]),
                             ("suffixed", ["C_major_00.MID", "G_major_00.midi"])]:
        os.mkdir(directory)
        for source, name in zip(["C_major_00.mid", "G_major_00.mid"], names):
            shutil.copy(run_dir / "midi" / source, os.path.join(directory, name))
    capsys.readouterr()
    rc, suffixed = _keys(run_dir, "major", f"{run_dir}/absent.txt", "suffixed", "suffixed.csv")
    assert rc == 0
    assert "wrote suffixed.csv from 2 pieces" in capsys.readouterr().out
    assert roots == [[0, 7]]  # C major, then G major
    assert suffixed == _keys(run_dir, "major", f"{run_dir}/absent.txt", "plain", "plain.csv")[1]


def test_a_file_that_fails_to_parse_is_still_skipped(run_dir, parsed, capsys):
    shutil.copytree(run_dir / "midi", "midi")
    with open("midi/C_major_02.mid", "wb") as fh:
        fh.write(b"MThd not a MIDI file")
    capsys.readouterr()
    rc, with_bad = _keys(run_dir, "major", f"{run_dir}/corpus.txt", "midi")
    err = capsys.readouterr().err
    assert rc == 0
    assert len(parsed) == 1
    assert [line.split(":")[0] for line in err.splitlines()] == ["skipping midi/C_major_02.mid"]
    assert with_bad == _keys(run_dir, "major", f"{run_dir}/corpus.txt", out="clean.csv")[1]


_DIGEST = "0123456789abcdef" * 4


@pytest.mark.parametrize(
    "corpus",
    [
        "SLICECORPUS v2 1\n0.4.7 2.7.11\n",  # no digest
        f"SLICECORPUS v2 1\n{_DIGEST.upper()} 0.4.7\n",
        f"SLICECORPUS v2 1\n{_DIGEST[:-1]} 0.4.7\n",
        "SLICECORPUS v2 1\n\n",
        f"SLICECORPUS v2 2\n{_DIGEST} 0.4.7\n",  # a piece short
        f"SLICECORPUS v3 1\n{_DIGEST} 0.4.7\n",
    ],
    ids=["no-digest", "upper-case", "short-digest", "empty-line", "piece-short", "v3"],
)
@pytest.mark.parametrize("command", ["analyze-keys", "train"])
def test_corrupt_corpus_cache_exits_2_in_one_line(run_dir, capsys, corpus, command):
    with open("corpus.txt", "w") as fh:
        fh.write(corpus)
    caches = ["--vocab-cache", f"{run_dir}/vocab.txt"]
    if command == "train":
        argv = ["train", "--dims", "4", "--steps", "5", "--batch-size", "4", *caches]
    else:
        argv = ["analyze", "keys", "--pieces-dir", f"{run_dir}/midi", *caches,
                "--embedding-path", f"{run_dir}/embedding.txt"]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("data error: corpus.txt: ") and err.count("\n") == 1, err


def test_a_noncanonical_cached_form_names_the_cache(run_dir, capsys):
    """The first piece is A major: analyze keys reads its slices from its cached line."""
    header, first, *rest = open(run_dir / "corpus.txt").read().split("\n")
    digest, form, *forms = first.split(" ")
    with open("corpus.txt", "w") as fh:
        fh.write("\n".join([header, " ".join([digest, "0" + form, *forms]), *rest]))
    argv = ["analyze", "keys", "--pieces-dir", f"{run_dir}/midi", "--mode", "major",
            "--vocab-cache", f"{run_dir}/vocab.txt", "--embedding-path", f"{run_dir}/embedding.txt"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"data error: corpus.txt: bad slice form {'0' + form!r}\n"


@pytest.mark.parametrize("block", [None, 5])
def test_blocked_key_matrix_equals_per_transposition_reference(monkeypatch, block):
    dims = 64
    if block:
        monkeypatch.setattr(analysis, "GATHER_FLOATS", 12 * dims * block)
    block = analysis.GATHER_FLOATS // (12 * dims)
    rnd = random.Random(5)
    gen = np.random.default_rng(5)
    triads = [Slice(tuple(sorted((r + iv) % 12 for iv in ivs)))
              for ivs in ((0, 4, 7), (0, 3, 7)) for r in range(12)]
    others = [Slice(tuple(sorted(rnd.sample(range(12), rnd.randrange(1, 5)))))
              for _ in range(40)]
    forms = ["UNK", "R"] + sorted({s.form for s in triads + others})
    space = EmbeddingSpace(forms, gen.standard_normal((len(forms), dims)))
    pool = triads + others + [Slice(()), Slice((0, 1, 2, 3, 4, 5))]  # the last is OOV
    lengths = [1, block - 1, block, block + 1, 2 * block, 2 * block + 1, 3 * block - 2]
    pieces = []
    for n in lengths:
        # a triad keeps every transposition in vocabulary
        slices = [rnd.choice(pool) for _ in range(n - 1)] + [rnd.choice(triads)]
        pieces.append((slices, rnd.randrange(12)))
    # a long OOV run makes whole blocks of padding, one block starting with it
    pieces.append(([Slice((0, 1, 2, 3, 4, 5))] * (block + 1) + pieces[3][0], 4))
    mat = analysis.key_similarity_matrix(space, pieces, "major")
    assert np.array_equal(mat.values, _per_transposition_key_values(space, pieces))
