"""The benchmark reaches the program through names; each must still exist.

slicebench's tracer skips a name the program no longer has (listing it in
``Tracer.unwrapped``), and ``micro_rates`` leaves that rate at 0 with a note,
so a rename would otherwise only show as a zero in a benchmark line.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from slicevec import generator
from slicevec.cli import main

SLICEBENCH = Path(__file__).resolve().parent.parent / "slicebench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(SLICEBENCH))


def test_tracer_wraps_every_entry_point(bench):
    from layers import Tracer, install_wraps

    tracer = Tracer()
    try:
        install_wraps(tracer)
        assert tracer.unwrapped == []
    finally:
        tracer.unwrap_all()


class _StubProbe:
    """Runs each timed call once and reports one second for it."""

    def timed(self, fn):
        return fn(), 1.0, 1.0


def test_micro_rates_find_every_function(bench, tmp_path, monkeypatch, capsys):
    from layers import micro_rates
    from workloads import WORKLOADS, ingest_argv, synth_argv, train_argv

    monkeypatch.chdir(tmp_path)
    w = replace(WORKLOADS["accept"], pieces_per_key=1, bars=4, dims=4, steps=4,
                loss_every=2, batch_size=4)
    for argv in (synth_argv(w, 1), ingest_argv(w), train_argv(w, 1)):
        assert main(argv) == 0, argv
    capsys.readouterr()
    notes: list[str] = []
    rates = micro_rates(w, 1, _StubProbe(), notes)
    assert notes == []
    assert all(rate > 0 for rate in rates.values()), rates


def test_generate_calls_each_traced_generator_entry_point_once(bench, tmp_path, monkeypatch, capsys):
    # slicebench's generator.rewrite and generator.emit spans wrap these two names
    from workloads import WORKLOADS, generate_argv, ingest_argv, synth_argv, train_argv

    monkeypatch.chdir(tmp_path)
    w = replace(WORKLOADS["accept"], pieces_per_key=1, bars=4, dims=4, steps=4,
                loss_every=2, batch_size=4)
    for argv in (synth_argv(w, 1), ingest_argv(w), train_argv(w, 1)):
        assert main(argv) == 0, argv
    calls = Counter()
    for name in ("rewrite_piece", "emit_midi"):
        def counted(*args, _name=name, _real=getattr(generator, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(generator, name, counted)
    assert main(generate_argv(w, w.generate[0])) == 0
    assert calls == {"rewrite_piece": 1, "emit_midi": 1}
