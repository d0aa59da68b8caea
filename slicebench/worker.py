"""One workload process, started by run.py with the run's work directory as cwd.

    python3 slicebench/worker.py setup     <workload> <seed> <out_dir>
    python3 slicebench/worker.py measure   <workload> <seed> <seconds> <trace 0|1>
    python3 slicebench/worker.py agreement <seed>

``setup`` times importing slicevec plus ``slicevec synth`` in a fresh
process. ``measure`` runs whole pipeline passes through ``slicevec.cli.main``
until ``seconds`` have passed (at least MIN_PASSES), timing each CLI
operation at the reference speed of ``speed.py``; with trace 1 it alternates
untraced and traced passes and adds the per-layer timings. ``agreement`` compares the numba and numpy training kernels. The
program's own output is discarded; the last stdout line is a JSON object.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback

from workloads import (
    ANALYSES,
    WORKLOADS,
    analyze_argv,
    generate_argv,
    ingest_argv,
    output_files,
    synth_argv,
    train_argv,
)

MIN_PASSES = 2
MAX_MEASURE_S = 120.0  # never start a pass that would end past this


def run_cli(cli, argv: list[str]) -> str | None:
    """Run one CLI command quietly; None on exit code 0, else what went wrong."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a traceback is a failed operation, not a benchmark crash
        return f"{argv[0]}: " + traceback.format_exc().strip().splitlines()[-1]
    if rc == 0:
        return None
    last = sink.getvalue().strip().splitlines()[-1:] or [""]
    return f"{argv[0]}: exit {rc}: {last[0]}"


def file_hashes(names: list[str]) -> dict[str, str]:
    out = {}
    for name in names:
        try:
            with open(name, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        except OSError:
            out[name] = "missing"
    return out


class Pass:
    """Runs the pipeline once, timing each CLI operation at the reference speed."""

    def __init__(self, cli, w, seed: int, probe, tracer=None, repeat: bool = True):
        self.cli, self.w, self.seed, self.probe, self.tracer = cli, w, seed, probe, tracer
        self.reps = dict(w.op_reps) if repeat else {}
        self.ops = 0
        self.failures: list[str] = []
        self.wall: dict[str, float] = {}

    def _op(self, key: str, argv: list[str]) -> float:
        self.ops += 1

        def call():
            if self.tracer is None:
                return run_cli(self.cli, argv)
            with self.tracer.span("cli.main"):
                return run_cli(self.cli, argv)

        failure, seconds, wall = self.probe.timed(call)
        self.wall[key] = min(wall, self.wall.get(key, wall))
        if failure:
            self.failures.append(failure)
        return seconds

    def run(self) -> dict[str, float]:
        """Fastest seconds per CLI operation, keyed "<stage>" or "<stage>.<what>"."""
        w = self.w
        ops = [("ingest", ingest_argv(w)), ("train", train_argv(w, self.seed))]
        ops += [(f"analyze.{which}", analyze_argv(which)) for which in ANALYSES]
        ops += [(f"generate.{piece}", generate_argv(w, piece)) for piece in w.generate]
        return {
            key: min(self._op(key, argv) for _ in range(self.reps.get(key.split(".", 1)[0], 1)))
            for key, argv in ops
        }


def setup(w, seed: int, out_dir: str) -> dict:
    """Import slicevec and write the corpus; numpy, which the probe needs, is loaded first."""
    from speed import SpeedProbe

    def run():
        from slicevec import cli

        return run_cli(cli, synth_argv(w, seed, out_dir))

    with SpeedProbe() as probe:
        failure, seconds, wall = probe.timed(run)
    return {"setup_s": seconds, "setup_wall_s": wall, "failure": failure}


def measure(w, seed: int, seconds: float, trace: bool) -> dict:
    from slicevec import _kernels, cli

    from speed import SpeedProbe

    result = {
        "backend": _kernels.BACKEND, "passes": [], "wall": [], "hashes": [], "ops": 0, "failures": [],
    }
    with SpeedProbe() as probe:

        def one_pass(tracer=None) -> dict[str, float]:
            # a traced run times single repetitions: its passes are one user pass each
            p = Pass(cli, w, seed, probe, tracer, repeat=not trace)
            times = p.run()
            result["ops"] += p.ops
            result["failures"] += p.failures
            result["wall"].append(p.wall)
            result["hashes"].append(file_hashes(output_files(w)))
            return times

        if trace:
            result.update(traced_passes(w, seed, seconds, cli, probe, one_pass, result))
        else:
            started = time.perf_counter()
            while True:
                result["passes"].append(one_pass())
                elapsed = time.perf_counter() - started
                done = len(result["passes"])
                if done >= MIN_PASSES and (elapsed >= seconds or elapsed * (done + 1) / done > MAX_MEASURE_S):
                    break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def traced_passes(w, seed: int, seconds: float, cli, probe, one_pass, result: dict) -> dict:
    """Alternate untraced and traced passes; summarize the fastest traced one."""
    from layers import Tracer, install_wraps, micro_rates

    started = time.perf_counter()
    tracer = Tracer()
    install_wraps(tracer)
    with tracer.span("cli.main"):
        failure = run_cli(cli, synth_argv(w, seed, "traced_corpus"))
    result["ops"] += 1
    result["failures"] += [failure] if failure else []
    synth_range = (0, len(tracer.spans))
    tracer.unwrap_all()
    traced = []  # (times, span range, counts)
    while True:
        result["passes"].append(one_pass())
        install_wraps(tracer)
        tracer.counts.clear()
        lo = len(tracer.spans)
        times = one_pass(tracer)
        traced.append((times, (lo, len(tracer.spans)), dict(tracer.counts)))
        tracer.unwrap_all()
        elapsed = time.perf_counter() - started
        if elapsed >= seconds or elapsed * (len(traced) + 1) / len(traced) > MAX_MEASURE_S:
            break
    times, span_range, counts = min(traced, key=lambda t: sum(t[0].values()))
    notes: list[str] = []
    return {
        "traced_passes": [t[0] for t in traced],
        "summary": tracer.summary([synth_range, span_range]),
        "counts": counts,
        "overhead_s": sum(times.values()) - min(sum(p.values()) for p in result["passes"]),
        "unwrapped": tracer.unwrapped,
        "micro": micro_rates(w, seed, probe, notes),
        "notes": notes,
    }


def agreement(seed: int) -> dict:
    """The numba kernel against the numpy kernel on identical inputs (numba backend only)."""
    import numpy as np

    from slicevec import _kernels
    from slicevec.rng import Rng
    from slicevec.slicer import build_vocabulary, encode_corpus, make_slice
    from slicevec.synth import generate_piece, piece_rng
    from slicevec.trainer import BatchCursor, EmbeddingMatrix, NoiseDistribution, TrainingConfig

    from checks import CIRCLE, PC

    w = WORKLOADS["accept"]
    pieces = [
        [make_slice(b) for b in generate_piece(PC[k], "major", w.bars, piece_rng(seed, PC[k], "major", i))]
        for k in CIRCLE
        for i in range(w.pieces_per_key)
    ]
    vocab = build_vocabulary((s for p in pieces for s in p), w.vocab_size)
    corpus = encode_corpus(pieces, vocab)
    config = TrainingConfig(dims=w.dims, batch_size=w.batch_size, steps=300, seed=seed)
    rng = Rng(config.seed)
    emb = EmbeddingMatrix.initialize(vocab.size, config.dims, rng)
    cursor = BatchCursor.start(corpus, config, rng)
    cdf = NoiseDistribution.from_vocabulary(vocab).cdf

    def run(kernel, n_batches: int) -> dict:
        inp, out = emb.input_vectors.copy(), emb.output_vectors.copy()
        state, position, pend = cursor.state.copy(), cursor.position.copy(), cursor.pend.copy()
        started = time.perf_counter()
        loss_sum, status, _, _ = kernel(
            cursor.tokens, cursor.starts, cursor.ends, inp, out, cdf, state, position, pend,
            n_batches, config.batch_size, config.window_c // 2, config.num_skips_k,
            config.negative_samples, config.learning_rate, 0,
        )
        elapsed = time.perf_counter() - started
        return {"s": elapsed, "loss": loss_sum, "inp": inp, "out": out, "state": int(state[0]), "status": status}

    run(_kernels._run_window_nb, 1)  # compile outside the timed call
    a = run(_kernels._run_window_numpy, config.steps)
    b = run(_kernels._run_window_nb, config.steps)
    pairs = config.steps * config.batch_size
    return {
        "numpy_pairs_per_s": pairs / a["s"],
        "numba_pairs_per_s": pairs / b["s"],
        "same_stream": a["state"] == b["state"] and a["status"] == b["status"] == 0,
        "loss_rel_diff": abs(a["loss"] - b["loss"]) / max(abs(a["loss"]), 1.0),
        "max_weight_drift": max(
            float(np.max(np.abs(a["inp"] - b["inp"]))), float(np.max(np.abs(a["out"] - b["out"])))
        ),
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        out = setup(WORKLOADS[argv[1]], int(argv[2]), argv[3])
    elif mode == "measure":
        out = measure(WORKLOADS[argv[1]], int(argv[2]), float(argv[3]), argv[4] == "1")
    elif mode == "agreement":
        out = agreement(int(argv[1]))
    else:
        print(f"unknown worker mode {mode!r}", file=sys.stderr)
        return 1
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
