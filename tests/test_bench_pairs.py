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
                        "change 100 [99.5, 100.5]  wins 1/2  worse by +0.0% (bound 24%)  "
                        "95% [-1.0%, +1.0%]  SAME")
    assert lines[1] == ("pipeline_s (s, lower is better): parent 1 [0.95, 1.05]  "
                        "change 1.25 [1.225, 1.275]  wins 0/2  worse by +25.0% (bound 24%)  "
                        "95% [+9.1%, +30.0%]  WORSE")
    assert lines[2:] == [
        "failed run: change pair 3 seed 1: correct: false",
        "failed run: change pair 4 seed 1: exit 1, no result line",
        "failed run: parent pair 4 seed 1: 2 of 10 operations failed",
    ]
    good = [dict(run, exit=0, result=result_of(_stdout(1.0, 100.0))) for run in runs]
    assert summarize(good, metrics)[-1] == "failed runs: none"


def test_summary_reads_better_past_the_parents_spread_and_unresolved_on_a_wide_parent(
    monkeypatch,
):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from bench_pairs import result_of, summarize

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m for m in bench["end_to_end"] if m["name"] in ("pipeline_s", "train_pairs_per_s")]
    # pipeline_s: the change is faster in 9 of 10 pairs, by 0.1 s against a parent
    # spread of 0.025 s; train_pairs_per_s: the parent's quartiles spread 37.5% of its median
    parent_s = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.03, 0.97, 1.0, 0.85]
    parent_rate = [100.0, 150.0, 70.0, 140.0, 60.0, 100.0, 130.0, 80.0, 100.0, 100.0]
    runs = []
    for pair, (seconds, rate) in enumerate(zip(parent_s, parent_rate), start=1):
        for side, out in (("parent", _stdout(seconds, rate)), ("change", _stdout(0.9, 100.0))):
            runs.append({"side": side, "pair": pair, "seed": 1, "exit": 0, "result": result_of(out)})
    lines = summarize(runs, metrics)
    assert lines[0] == ("train_pairs_per_s (pairs/s, higher is better): parent 100 [85, 122.5]  "
                        "change 100 [100, 100]  wins 3/10  worse by +0.0% (bound 24%)  "
                        "95% [-25.0%, +23.1%]  UNRESOLVED")
    assert lines[1] == ("pipeline_s (s, lower is better): parent 1 [0.9825, 1.0075]  "
                        "change 0.9 [0.9, 0.9]  wins 9/10  worse by -10.0% (bound 24%)  "
                        "95% [-10.9%, -8.2%]  BETTER")
    assert lines[2:] == ["failed runs: none"]


def test_the_interval_excludes_0_where_every_pair_agrees_and_straddles_it_where_they_split(
    monkeypatch,
):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from bench_pairs import interval, result_of, summarize

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m for m in bench["end_to_end"] if m["name"] == "pipeline_s"]
    lines = []
    for change_s in ([0.90, 0.92, 0.95, 0.91, 0.93, 0.96, 0.89, 0.94],  # each pair faster
                     [0.95, 1.04, 0.98, 1.03, 0.97, 1.02, 1.0, 0.99]):  # 4 faster, 3 slower
        runs = []
        for pair, seconds in enumerate(change_s, start=1):
            for side, out in (("parent", _stdout(1.0, 100.0)), ("change", _stdout(seconds, 100.0))):
                runs.append({"side": side, "pair": pair, "seed": 1, "exit": 0,
                             "result": result_of(out)})
        lines.append(summarize(runs, metrics)[0])
    assert lines == [
        "pipeline_s (s, lower is better): parent 1 [1, 1]  change 0.925 [0.9075, 0.9425]  "
        "wins 8/8  worse by -7.5% (bound 24%)  95% [-10.0%, -5.0%]  BETTER",
        "pipeline_s (s, lower is better): parent 1 [1, 1]  change 0.995 [0.9775, 1.0225]  "
        "wins 4/8  worse by -0.5% (bound 24%)  95% [-3.0%, +3.0%]  SAME",
    ]
    assert interval([0.1]) == (0.1, 0.1)
    assert interval([]) is None
