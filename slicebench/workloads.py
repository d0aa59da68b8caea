"""The benchmark's workloads: corpus make-up, training settings, pieces to rewrite.

Every workload drives the same CLI pipeline (synth -> ingest -> train ->
analyze chords/keys/analogy -> generate); they differ in which layer does
most of the work:

* ``accept``: the acceptance-gate corpus at dims 64, trained long enough that
  the numpy trainer's per-draw random-stream work dominates the run.
* ``reference``: the same corpus at the reference width (dims 256), where the
  trainer is bound by float row updates and embedding I/O is 4x wider.
* ``stress``: 480 pieces x 256 beats, briefly trained, so MIDI parsing,
  slicing, the caches, ``analyze keys`` and rewriting long pieces dominate.

The synth and training seeds both come from the benchmark's ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    modes: tuple[str, ...]
    pieces_per_key: int
    bars: int
    dims: int
    steps: int
    loss_every: int
    generate: tuple[str, ...]  # corpus file names rewritten by `generate`
    setup_reps: int  # setups per run; setup_s is their median
    # back-to-back repetitions per pass of short operations, by stage, so
    # that sub-second operations get enough repetitions for a steady fastest
    op_reps: tuple[tuple[str, int], ...] = ()
    vocab_size: int = 500
    batch_size: int = 128
    learning_rate: float = 0.1
    window_c: int = 4
    num_skips_k: int = 2
    negative_samples: int = 5
    top_n: int = 5

    @property
    def pairs(self) -> int:
        return self.steps * self.batch_size


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "accept", ("major",), 4, 26, dims=64, steps=1000, loss_every=250,
            generate=("C_major_00.mid", "F_major_03.mid"), setup_reps=5,
            op_reps=(("ingest", 6), ("analyze", 2), ("generate", 2)),
        ),
        Workload(
            "reference", ("major",), 4, 26, dims=256, steps=600, loss_every=150,
            generate=("C_major_00.mid", "F_major_03.mid"), setup_reps=5,
            op_reps=(("ingest", 6), ("analyze", 2), ("generate", 2)),
        ),
        Workload(
            "stress", ("major", "minor"), 20, 64, dims=64, steps=200, loss_every=50,
            generate=("C_major_00.mid",), setup_reps=3,
        ),
    )
}

CORPUS_DIR = "corpus"
CORPUS_CACHE = "corpus.txt"
VOCAB_CACHE = "vocab.txt"
EMBEDDING = "embedding.txt"
LOSS_CSV = "loss.csv"
ANALYSES = ("chords", "keys", "analogy")


def synth_seed(seed: int) -> int:
    return seed & 0xFFFFFFFF


def train_seed(seed: int) -> int:
    return (seed & 0xFFFFFFFF) + 1


def synth_argv(w: Workload, seed: int, out_dir: str = CORPUS_DIR) -> list[str]:
    return [
        "synth", "--out-dir", out_dir, "--keys", "all", "--modes", ",".join(w.modes),
        "--pieces-per-key", str(w.pieces_per_key), "--bars", str(w.bars),
        "--seed", str(synth_seed(seed)),
    ]


def _cache_flags() -> list[str]:
    return [
        "--corpus-cache", CORPUS_CACHE, "--vocab-cache", VOCAB_CACHE,
        "--embedding-path", EMBEDDING, "--loss-csv", LOSS_CSV,
    ]


def ingest_argv(w: Workload) -> list[str]:
    return ["ingest", "--corpus-dir", CORPUS_DIR, "--vocab-size", str(w.vocab_size)] + _cache_flags()


def train_argv(w: Workload, seed: int) -> list[str]:
    return [
        "train", "--dims", str(w.dims), "--steps", str(w.steps),
        "--batch-size", str(w.batch_size), "--learning-rate", repr(w.learning_rate),
        "--window-c", str(w.window_c), "--num-skips-k", str(w.num_skips_k),
        "--negative-samples", str(w.negative_samples), "--loss-every", str(w.loss_every),
        "--seed", str(train_seed(seed)), "--threads", "1",
    ] + _cache_flags()


def analyze_argv(which: str) -> list[str]:
    argv = ["analyze", which, "--out", f"{which}.csv"] + _cache_flags()
    if which == "keys":
        argv += ["--pieces-dir", CORPUS_DIR, "--mode", "major"]
    elif which == "chords":
        argv += ["--tonics", "C,G,F", "--quality", "major"]
    else:
        argv += ["--roles", "I,V", "--mode", "major"]
    return argv


def generated_names(piece: str) -> tuple[str, str]:
    """(output MIDI, diagnostics CSV) written when rewriting a corpus piece."""
    stem = piece.rsplit(".", 1)[0]
    return f"gen_{stem}.mid", f"diag_{stem}.csv"


def generate_argv(w: Workload, piece: str) -> list[str]:
    midi_out, diag = generated_names(piece)
    return [
        "generate", "--midi-in", f"{CORPUS_DIR}/{piece}", "--midi-out", midi_out,
        "--diagnostics", diag, "--top-n", str(w.top_n), "--exclude-identity", "true",
    ] + _cache_flags()


def output_files(w: Workload) -> list[str]:
    """Every file a pipeline pass writes, relative to the work directory."""
    files = [CORPUS_CACHE, VOCAB_CACHE, EMBEDDING, LOSS_CSV]
    files += [f"{which}.csv" for which in ANALYSES]
    for piece in w.generate:
        files += list(generated_names(piece))
    return files
