"""Run slicebench in two checkouts in alternating pairs and compare their end-to-end metrics.

    python3 tools/bench_pairs.py --parent ../parent --change . --workload stress --seed 1 --pairs 10

Each pair runs BENCHMARK.json's command (``python3 slicebench/run.py``) with
``--workload W --seed S --seconds <run_seconds> --trace 0`` once in each
checkout, one run at a time: the parent first in odd pairs, the change first
in even ones. A run's result is the last line it prints. For every end-to-end
metric of BENCHMARK.json the summary gives each side's median and quartiles,
the pairs the change won (ties count for neither), how much worse the
change's median is than the parent's against the metric's bound, a 95%
bootstrap interval of the median per-pair difference (see interval), and one
verdict (see verdict). It then lists every run that exited non-zero, reported
"correct": false or counted failed operations, with its side, pair and seed;
the medians leave those runs out. Neither checkout is edited.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def result_of(stdout: str) -> dict | None:
    """The result on a run's last stdout line, or None if that line is not one."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def run_pairs(checkouts: dict[str, Path], command: list[str], workload: str, seed: int,
              pairs: int, seconds: float) -> list[dict]:
    """Run pairs alternating pairs; every run, in the order it ran."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    runs = []
    for pair in range(1, pairs + 1):
        for side in SIDES if pair % 2 else SIDES[::-1]:
            proc = subprocess.run(argv, cwd=checkouts[side], capture_output=True, text=True)
            runs.append({"side": side, "pair": pair, "seed": seed,
                         "exit": proc.returncode, "result": result_of(proc.stdout)})
            print(f"pair {pair} {side}: exit {proc.returncode}", file=sys.stderr, flush=True)
    return runs


def fault(run: dict) -> str | None:
    """Why run failed, or None if it completed with correct outputs."""
    result = run["result"]
    if run["exit"] != 0 or result is None:
        return f"exit {run['exit']}" + ("" if result else ", no result line")
    if result.get("correct") is not True:
        return f"correct: {json.dumps(result.get('correct'))}"
    if result.get("failed", 0):
        return f"{result['failed']} of {result.get('attempted')} operations failed"
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile) of values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def interval(diffs: list[float]) -> tuple[float, float] | None:
    """2.5th and 97.5th percentiles of the median of diffs over 2,000 resamples, each
    len(diffs) draws with replacement (random.Random(0)); None without diffs."""
    if not diffs:
        return None
    rnd = random.Random(0)
    medians = [statistics.median(rnd.choices(diffs, k=len(diffs))) for _ in range(2000)]
    cuts = statistics.quantiles(medians, n=40, method="inclusive")
    return cuts[0], cuts[-1]


def verdict(worse: float, bound: float, wins: int, pairs: int, parent: tuple) -> str:
    """WORSE past the bound; BETTER when the change won at least nine tenths of the
    pairs and its median beats the parent's by more than the parent's quartile
    spread; UNRESOLVED when that spread is wider than bound times the parent's
    median; SAME otherwise. worse is relative to the parent's median."""
    spread = (parent[2] - parent[0]) / parent[1]
    if worse > bound:
        return "WORSE"
    if pairs and 10 * wins >= 9 * pairs and -worse > spread:
        return "BETTER"
    return "UNRESOLVED" if spread > bound else "SAME"


def summarize(runs: list[dict], metrics: list[dict]) -> list[str]:
    """One line per end-to-end metric, then one per failed run."""
    good = [run for run in runs if fault(run) is None]
    lines = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        value = {side: {run["pair"]: run["result"]["metrics"][name]["value"]
                        for run in good if run["side"] == side} for side in SIDES}
        missing = [side for side in SIDES if not value[side]]
        if missing:
            lines.append(f"{name}: no completed run on the {' and '.join(missing)} side")
            continue
        stats = {side: quartiles(list(value[side].values())) for side in SIDES}
        both = value["parent"].keys() & value["change"].keys()
        wins = sum((value["change"][p] < value["parent"][p]) == lower
                   and value["change"][p] != value["parent"][p] for p in both)
        parent, change = stats["parent"][1], stats["change"][1]
        worse = (change - parent if lower else parent - change) / parent
        sign = 1 if lower else -1  # each pair's difference, signed like worse
        ci = interval([sign * (value["change"][p] - value["parent"][p]) / value["parent"][p]
                       for p in sorted(both)])
        cells = [f"{side} {q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]" for side, q in stats.items()]
        lines.append(f"{name} ({m['unit']}, {m['better']} is better): {'  '.join(cells)}  "
                     f"wins {wins}/{len(both)}  worse by {worse:+.1%} (bound {m['bound']:.0%})  "
                     + (f"95% [{ci[0]:+.1%}, {ci[1]:+.1%}]  " if ci else "95% [no pairs]  ")
                     + verdict(worse, m["bound"], wins, len(both), stats["parent"]))
    lines += [f"failed run: {run['side']} pair {run['pair']} seed {run['seed']}: {why}"
              for run in runs if (why := fault(run))] or ["failed runs: none"]
    return lines


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "slicebench" / "run.py").is_file():
            parser.error(f"--{side} {path} has no slicebench/run.py")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    runs = run_pairs(checkouts, bench["command"], args.workload, args.seed, args.pairs,
                     bench["run_seconds"])
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of {bench['run_seconds']} s runs")
    print("\n".join(summarize(runs, bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
