"""tools/bench_pairs.py: the summary of alternating parent/change slicebench runs."""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _stdout(pipeline_s, pairs_per_s, correct=True, failed=0):
    metrics = {"pipeline_s": {"value": pipeline_s, "unit": "s"},
               "train_pairs_per_s": {"value": pairs_per_s, "unit": "pairs/s"}}
    result = {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}
    return 'record: {"workload": "stress"}\n' + json.dumps(result) + "\n"


def test_summary_flags_a_median_past_its_bound_and_lists_failed_runs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from bench_pairs import result_of, summarize

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m for m in bench["end_to_end"] if m["name"] in ("pipeline_s", "train_pairs_per_s")]
    assert [(m["name"], m["bound"]) for m in metrics] == [("train_pairs_per_s", 0.24),
                                                          ("pipeline_s", 0.24)]
    canned = [  # (side, pair, exit, stdout)
        ("parent", 1, 0, _stdout(1.0, 100.0)), ("change", 1, 0, _stdout(1.3, 101.0)),
        ("change", 2, 0, _stdout(1.2, 99.0)), ("parent", 2, 0, _stdout(1.1, 100.0)),
        ("parent", 3, 0, _stdout(0.9, 100.0)), ("change", 3, 0, _stdout(0.1, 100.0, correct=False)),
        ("change", 4, 1, "benchmark error: worker synth exited 1\n"),
        ("parent", 4, 0, _stdout(1.0, 98.0, failed=2)),
    ]
    runs = [{"side": side, "pair": pair, "seed": 1, "exit": code, "result": result_of(out)}
            for side, pair, code, out in canned]
    lines = summarize(runs, metrics)
    # the medians leave out the three failed runs: parent 1.0 and change 1.25 s
    assert lines[0] == ("train_pairs_per_s (pairs/s, higher is better): parent 100 [100, 100]  "
                        "change 100 [99.5, 100.5]  wins 1/2  worse by +0.0% (bound 24%)")
    assert lines[1] == ("pipeline_s (s, lower is better): parent 1 [0.95, 1.05]  "
                        "change 1.25 [1.225, 1.275]  wins 0/2  worse by +25.0% (bound 24%)  WORSE")
    assert lines[2:] == [
        "failed run: change pair 3 seed 1: correct: false",
        "failed run: change pair 4 seed 1: exit 1, no result line",
        "failed run: parent pair 4 seed 1: 2 of 10 operations failed",
    ]
    good = [dict(run, exit=0, result=result_of(_stdout(1.0, 100.0))) for run in runs]
    assert summarize(good, metrics)[-1] == "failed runs: none"
