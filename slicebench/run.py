"""Benchmark of the slicevec CLI pipeline: end-to-end stage times, per-layer traces.

    python3 slicebench/run.py --workload accept --seed 1 --seconds 30 --trace 0

Run from the repository root; slicevec is imported from ./src. Each run makes
its workload's corpus from --seed in a work directory under the root, times
set-up in fresh processes (median of several), then runs whole pipeline
passes in one workload process (SLICEVEC_BACKEND=numpy, one thread) for
--seconds and reports the fastest time of each stage. All outputs are then
checked against independent recomputations. With --trace 1 the run reports
per-layer metrics from a traced pass instead of the end-to-end ones.

Stdout ends with a run record line ("record: {...}") and then the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exit code 0 on a completed run, 1 if the benchmark itself broke, 2 if the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".slicebench_work"
WORKER_TIMEOUT_S = 170

from workloads import CORPUS_DIR, WORKLOADS, synth_seed, train_seed  # noqa: E402

# end-to-end metric -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ingest_s": ("s", "lower"),
    "train_pairs_per_s": ("pairs/s", "higher"),
    "analyze_s": ("s", "lower"),
    "generate_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


class BenchError(Exception):
    """The benchmark could not complete a run."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SLICEVEC_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["SLICEVEC_BACKEND"] = "numpy"
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def call_worker(args: list[str], cwd: Path, env: dict[str, str] | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=cwd, env=env or worker_env(), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env=env, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def backend_agreement(seed: int, cwd: Path) -> dict:
    if importlib.util.find_spec("numba") is None:
        return {"skipped": "numba does not import; only the numpy backend was measured"}
    env = dict(worker_env(), SLICEVEC_BACKEND="numba")
    return {"backends": "numba vs numpy", **call_worker(["agreement", str(synth_seed(seed))], cwd, env)}


def run(args, w, work: Path) -> tuple[dict, dict]:
    import numpy as np

    from checks import check_all, expected_pieces, expected_vocab
    from layers import PER_LAYER, per_layer_metrics

    env = worker_env()
    warm = subprocess.run(
        [sys.executable, "-c", "import slicevec.cli"], cwd=work, env=env, capture_output=True,
        text=True, timeout=WORKER_TIMEOUT_S,
    )
    if warm.returncode != 0:
        raise BenchError(f"cannot import slicevec: {warm.stderr.strip()[-2000:]}")

    attempted, failures = 0, []
    setups, setup_walls = [], []
    for i in range(1 if args.trace else w.setup_reps):
        out = call_worker(["setup", w.name, str(args.seed), f"setup{i}"], work)
        attempted += 1
        failures += [out["failure"]] if out["failure"] else []
        setups.append(out["setup_s"])
        setup_walls.append(out["setup_wall_s"])
    problems = {}
    digests = {dir_digest(work / f"setup{i}") for i in range(len(setups)) if (work / f"setup{i}").is_dir()}
    if len(digests) != 1:
        problems["synth"] = ["repeated synth runs wrote different corpora"]
    if (work / "setup0").is_dir():
        (work / "setup0").rename(work / CORPUS_DIR)
    for i in range(1, len(setups)):
        shutil.rmtree(work / f"setup{i}", ignore_errors=True)

    m = call_worker(["measure", w.name, str(args.seed), str(args.seconds), str(int(args.trace))], work)
    attempted += m["ops"]
    failures += m["failures"]
    if m["backend"] != "numpy":
        problems["backend"] = [f"the {m['backend']} backend ran, not numpy"]
    if any(h != m["hashes"][0] for h in m["hashes"]):
        changed = sorted({k for h in m["hashes"] for k in h if h[k] != m["hashes"][0].get(k)})
        problems["repeatable"] = [f"outputs differ between passes: {changed}"]
    try:
        checks = check_all(str(work), w, args.seed)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        checks = {"outputs": [f"could not check the outputs: {exc!r}"]}
    checks.update(problems)
    correct = not any(checks.values())

    passes = m["passes"]
    best = {op: min(p[op] for p in passes) for op in passes[0]}  # fastest of each operation

    def stage(name: str) -> float:
        return sum(t for op, t in best.items() if op.split(".", 1)[0] == name)

    if args.trace:
        pieces = expected_pieces(w, args.seed)
        forms, _ = expected_vocab(pieces, w.vocab_size)
        rewritten = [p for p in pieces if p.name in w.generate]
        distinct = sum(len(set(p.forms)) for p in rewritten) / sum(len(p.forms) for p in rewritten)
        values = per_layer_metrics(m["summary"], m["counts"], w, distinct, len(forms))
        values.update(m["micro"])
        values["trace.overhead_s"] = m["overhead_s"]
        spec = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ingest_s": stage("ingest"),
            "train_pairs_per_s": w.pairs / stage("train"),
            "analyze_s": stage("analyze"),
            "generate_s": stage("generate"),
            "pipeline_s": sum(best.values()),
            "peak_rss_mb": m["peak_rss_mb"],
        }
        spec = END_TO_END

    record = {
        "workload": w.name,
        "seed": args.seed,
        "synth_seed": synth_seed(args.seed),
        "train_seed": train_seed(args.seed),
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "git_sha": git_sha(),
        "source_sha256": hashlib.sha256(
            b"".join(p.read_bytes() for p in sorted((SRC / "slicevec").glob("*.py")))
        ).hexdigest(),
        "backend": m["backend"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "setup_s": setups,
        "setup_wall_s": setup_walls,
        "passes": passes,
        "wall": m["wall"],
        "checks": {name: errors or "ok" for name, errors in checks.items()},
        "peak_rss_mb": m["peak_rss_mb"],
    }
    if args.trace:
        record.update(
            traced_passes=m["traced_passes"],
            self_s=m["summary"]["self"],
            calls=m["summary"]["calls"],
            overhead_s=m["overhead_s"],
            unwrapped=m["unwrapped"],
            notes=m["notes"],
            backend_agreement=backend_agreement(args.seed, work),
        )
    else:
        record["backend_agreement"] = {"skipped": "checked in --trace 1 runs"}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, (unit, _) in spec.items()},
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "slicevec" / "__init__.py").is_file():
        print(f"slicevec sources not found under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["SLICEVEC_BACKEND"] = "numpy"  # the checks import slicevec.synth here too

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, record = run(args, WORKLOADS[args.workload], work)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
