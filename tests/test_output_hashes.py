"""tools/output_hashes.py: one sha256 line per output of a workload's pipeline pass."""

from __future__ import annotations

import hashlib
import re
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_output_hashes_prints_one_line_per_output(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "slicebench"))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    monkeypatch.chdir(tmp_path)
    from output_hashes import commands, output_hashes
    from workloads import CORPUS_DIR, WORKLOADS, output_files

    w = replace(WORKLOADS["accept"], pieces_per_key=1, bars=4, dims=4, steps=4,
                loss_every=2, batch_size=4, generate=("C_major_00.mid",))
    lines = output_hashes(w, 1)
    assert lines == output_hashes(w, 1)  # a second pass in the same process agrees
    pairs = [re.fullmatch(r"([0-9a-f]{64})  (.+)", line).groups() for line in lines]
    names = [name for _, name in pairs]
    midi = [f"{CORPUS_DIR}/{key}_major_00.mid"
            for key in ("A", "Ab", "B", "Bb", "C", "D", "Db", "E", "Eb", "F", "Fs", "G")]
    streams = [f"{name} {s}" for name, _ in commands(w, 1) for s in ("exit", "stdout", "stderr")]
    assert names == sorted(output_files(w) + midi + streams)
    digest_of = {name: digest for digest, name in pairs}
    zero = hashlib.sha256(b"0").hexdigest()  # every command exits 0
    assert all(digest_of[f"{name} exit"] == zero for name, _ in commands(w, 1))
    assert list(tmp_path.iterdir()) == []  # the pass ran in its own directory
