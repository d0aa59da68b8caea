"""The three cache loaders refuse every truncated or extended copy of a saved file,
the corpus cache in both its formats, and a form that is not canonical."""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest

from slicevec import cli
from slicevec.cli import main
from slicevec.embedding import EmbeddingSpace, load_embedding, save_embedding
from slicevec.slicer import (
    Slice,
    Vocabulary,
    load_corpus,
    load_vocabulary,
    save_corpus,
    save_vocabulary,
)

_PIECES = [
    [Slice((0, 4, 7)), Slice((2, 7, 11)), Slice(())],
    [],
    [Slice((0, 5, 9)), Slice((11,))],
]
_VOCAB = Vocabulary([(Slice((0, 4, 7)), 12), (Slice((0, 5, 9)), 3)], unk_count=10)
_SPACE = EmbeddingSpace(
    ["UNK", "0.4.7", "0.5.9"],
    np.array([[0.5, -1.25], [1e-07, 2.0], [-3.0, 5.5]]),
)


_DIGESTS = [hashlib.sha256(bytes([i])).hexdigest() for i in range(len(_PIECES))]


def _save_corpus(path):
    save_corpus(path, _PIECES)


def _save_corpus_v2(path):
    save_corpus(path, _PIECES, _DIGESTS)


def _save_vocab(path):
    save_vocabulary(path, _VOCAB)


def _save_space(path):
    save_embedding(path, _SPACE)


# (save, load, a line that would be valid had the header counted it)
CACHES = {
    "corpus": (_save_corpus, load_corpus, "0.4.7 2.7.11"),
    "corpus_v2": (_save_corpus_v2, load_corpus, f"{_DIGESTS[0]} 0.4.7 2.7.11"),
    "vocab": (_save_vocab, load_vocabulary, "3 2.7.11 1"),
    "embedding": (_save_space, load_embedding, "2.7.11 1.0 2.0"),
}


@pytest.mark.parametrize("name", sorted(CACHES))
def test_loader_refuses_every_strict_prefix(tmp_path, name):
    save, load, _ = CACHES[name]
    path = str(tmp_path / "cache.txt")
    save(path)
    whole = open(path, "rb").read()
    load(path)  # the saved file itself loads
    for cut in range(len(whole)):
        with open(path, "wb") as fh:
            fh.write(whole[:cut])
        with pytest.raises(ValueError) as refused:
            load(path)
            pytest.fail(f"{name} loaded the first {cut} of {len(whole)} bytes: {whole[:cut]!r}")
        assert str(refused.value).startswith(f"{path}: "), refused.value


@pytest.mark.parametrize("name", sorted(CACHES))
def test_loader_refuses_every_appended_line(tmp_path, name):
    save, load, row = CACHES[name]
    path = str(tmp_path / "cache.txt")
    save(path)
    whole = open(path, "rb").read()
    for extra in ("\n", "x", "x\n", row, row + "\n"):
        with open(path, "wb") as fh:
            fh.write(whole + extra.encode("ascii"))
        with pytest.raises(ValueError) as refused:
            load(path)
            pytest.fail(f"{name} loaded with {extra!r} appended")
        assert str(refused.value).startswith(f"{path}: "), refused.value


# the default path of each cache, and a command that loads it
_LOADED_BY = {
    "corpus": ("corpus.txt", ["stats"]),
    "corpus_v2": ("corpus.txt", ["stats"]),
    "vocab": ("vocab.txt", ["stats"]),
    "embedding": ("embedding.txt", ["analyze", "chords"]),
}


@pytest.mark.parametrize("spelling", ["0.5.09", "0.05.9", "+0.5.9", "0.5.0_9"])
@pytest.mark.parametrize("name", sorted(CACHES))
def test_a_noncanonical_form_exits_2_in_one_line(tmp_path, monkeypatch, capsys, name, spelling):
    """int() reads each spelling as 0.5.9, but only the canonical form names a slice."""
    monkeypatch.chdir(tmp_path)
    _save_corpus("corpus.txt")
    _save_vocab("vocab.txt")
    save, load, _ = CACHES[name]
    path, command = _LOADED_BY[name]
    save(path)
    lines = [line.split(" ") for line in open(path).read().split("\n")]
    assert sum(line.count("0.5.9") for line in lines) == 1
    with open(path, "w") as fh:
        fh.write("\n".join(" ".join(spelling if t == "0.5.9" else t for t in line) for line in lines))
    with pytest.raises(ValueError, match="bad slice form"):
        load(path)
    assert main(command) == 2
    assert capsys.readouterr().err == f"data error: {path}: bad slice form {spelling!r}\n"


# each integer field of a cache: (cache, its text with {} for the field, the field's value)
_INTEGER_FIELDS = {
    "corpus-count": ("corpus", "SLICECORPUS v1 {}\n" + "0.4.7\n" * 5, 5),
    "vocab-count": ("vocab", "SLICEVOCAB v1 {}\n0 UNK 0\n1 0.4.7 5\n", 2),
    "vocab-id": ("vocab", "SLICEVOCAB v1 2\n0 UNK 0\n{} 0.4.7 5\n", 1),
    "vocab-token-count": ("vocab", "SLICEVOCAB v1 2\n0 UNK 0\n1 0.4.7 {}\n", 5),
    "embedding-rows": ("embedding", "SLICEVEC v1 {} 2\nUNK 1.0 2.0\n", 1),
    "embedding-dims": ("embedding", "SLICEVEC v1 1 {}\nUNK 1.0 2.0\n", 2),
}


@pytest.mark.parametrize("spelling", ["+{}", "0{}", "0_{}"])
@pytest.mark.parametrize("field", sorted(_INTEGER_FIELDS))
def test_an_integer_spelled_other_than_canonical_exits_2_in_one_line(
    tmp_path, monkeypatch, capsys, field, spelling
):
    """int() reads "+5", "05" and "0_5" as 5, but only "5" is read."""
    monkeypatch.chdir(tmp_path)
    _save_corpus("corpus.txt")
    _save_vocab("vocab.txt")
    name, text, value = _INTEGER_FIELDS[field]
    _, load, _ = CACHES[name]
    path, command = _LOADED_BY[name]
    with open(path, "w") as fh:
        fh.write(text.format(value))
    load(path)
    with open(path, "w") as fh:
        fh.write(text.format(spelling.format(value)))
    with pytest.raises(ValueError) as refused:
        load(path)
    assert str(refused.value).startswith(f"{path}: "), refused.value
    assert main(command) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: ") and err.count("\n") == 1, err


def test_a_header_counting_more_values_than_memory_holds_exits_2(tmp_path, monkeypatch, capsys):
    """Nothing is allocated from the header's counts: the row's field count refuses it."""
    monkeypatch.chdir(tmp_path)
    with open("embedding.txt", "w") as fh:
        fh.write("SLICEVEC v1 1 10000000000\nUNK 1.0\n")
    assert main(["analyze", "chords"]) == 2
    assert capsys.readouterr().err == "data error: embedding.txt: bad vector line for token 0\n"


_EMPTY_DIGEST = hashlib.sha256(b"").hexdigest()


# edge cases of each writer: (save, load, the exact bytes written)
WRITTEN = {
    "no-pieces": (lambda path: save_corpus(path, []), load_corpus, b"SLICECORPUS v1 0\n"),
    "empty-piece-v1": (lambda path: save_corpus(path, [[]]), load_corpus, b"SLICECORPUS v1 1\n\n"),
    "empty-piece-v2": (
        lambda path: save_corpus(path, [[], [Slice((0, 4, 7))]], [_EMPTY_DIGEST] * 2),
        load_corpus,
        f"SLICECORPUS v2 2\n{_EMPTY_DIGEST}\n{_EMPTY_DIGEST} 0.4.7\n".encode("ascii"),
    ),
    "unk-only-vocab": (
        lambda path: save_vocabulary(path, Vocabulary([], unk_count=5)),
        load_vocabulary,
        b"SLICEVOCAB v1 1\n0 UNK 5\n",
    ),
    "one-row-embedding": (
        lambda path: save_embedding(path, EmbeddingSpace(["UNK"], np.array([[0.5, -1.25, 1e-07]]))),
        load_embedding,
        b"SLICEVEC v1 1 3\nUNK 0.5 -1.25 1e-07\n",
    ),
}


@pytest.mark.parametrize("case", sorted(WRITTEN))
def test_writer_edge_case_bytes(tmp_path, case):
    save, load, expected = WRITTEN[case]
    path = str(tmp_path / "cache.txt")
    save(path)
    assert open(path, "rb").read() == expected
    load(path)  # and the loader takes it back


# every role of a C major tonic, so that `analyze chords --tonics C` reads each row
_C_MAJOR_SPACE = EmbeddingSpace(
    ["UNK", "0.4.7", "2.7.11", "0.5.9", "0.4.9", "3.7.10", "1.5.8", "2.7.10"],
    np.array([[0.5, -1.25], [0.25, 2.0], [-3.0, 5.5], [1.5, 0.75], [2.5, -0.5],
              [-1.75, 1.5], [0.125, -2.5], [3.5, 1.25]]),
)


@pytest.mark.parametrize("name", sorted(CACHES))
def test_every_replaced_byte_loads_or_names_its_cache(tmp_path, monkeypatch, capsys, name):
    """Each byte of a saved cache replaced by x, -, a space, a newline, 0 or a non-ASCII
    byte: the loader succeeds or refuses with the path first, and the command that loads
    the cache exits 0 or 2 with at most one stderr line."""
    monkeypatch.chdir(tmp_path)
    # one parser for the whole loop: building it is most of a command's time here
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    _save_corpus("corpus.txt")
    _save_vocab("vocab.txt")
    save, load, _ = CACHES[name]
    path, command = _LOADED_BY[name]
    if name == "embedding":
        save = functools.partial(save_embedding, space=_C_MAJOR_SPACE)
        command = command + ["--tonics", "C"]
    save(path)
    whole = open(path, "rb").read()
    for at in range(len(whole)):
        for byte in b"x- \n0\xe9":
            with open(path, "wb") as fh:
                fh.write(whole[:at] + bytes([byte]) + whole[at + 1 :])
            try:
                load(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: "), (at, chr(byte), exc)
            rc = main(command)
            err = capsys.readouterr().err
            assert rc in (0, 2) and err.count("\n") <= 1, (at, chr(byte), rc, err)


@pytest.mark.parametrize(
    "command", [["stats"], ["train", "--dims", "4", "--steps", "5", "--batch-size", "4"]]
)
def test_a_vocabulary_count_past_int64_exits_2_in_one_line(tmp_path, monkeypatch, capsys, command):
    """The trainer reads the counts as int64: 2^63 - 1 loads, 2^63 is refused. UNK's
    count matches, so that neither token crowds the other out of the noise draws."""
    monkeypatch.chdir(tmp_path)
    _save_corpus("corpus.txt")
    text = f"SLICEVOCAB v1 2\n0 UNK {2**63 - 1}\n1 0.4.7 {{}}\n"
    with open("vocab.txt", "w") as fh:
        fh.write(text.format(2**63 - 1))
    assert load_vocabulary("vocab.txt").count_of(1) == 2**63 - 1
    assert main(command) == 0
    capsys.readouterr()
    with open("vocab.txt", "w") as fh:
        fh.write(text.format(2**63))
    assert main(command) == 2
    assert capsys.readouterr().err == "data error: vocab.txt: count out of range for id 1\n"
