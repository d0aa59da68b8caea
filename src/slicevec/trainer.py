"""Skip-gram training with negative sampling over encoded corpora.

The model keeps two matrices: input vectors (centers) and output vectors
(contexts and noise samples). For each (center, context) pair and each
sampled negative token, the loss is

    -log sigmoid(u_ctx . v_cen) - sum_neg log sigmoid(-u_neg . v_cen)

minimized by plain SGD at a fixed learning rate. Batches accumulate their
pair gradients against the matrices as they stood at the start of the batch
and apply the update afterwards, so a batch is one SGD step on the mean
pair loss of the batch.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import _kernels
from .rng import BlockRng, Rng
from .slicer import EncodedCorpus, Vocabulary

NOISE_POWER = 0.75
_INIT_CHUNK = 1 << 12  # initial values drawn per block request


class NumericalAbortError(RuntimeError):
    """Training hit a non-finite loss or matrix value."""

    def __init__(self, step: int, pair: int):
        self.step = step
        self.pair = pair
        where = f"batch {step}" if step >= 0 else "a standalone step"
        detail = f", pair {pair}" if pair >= 0 else ""
        super().__init__(f"non-finite value during {where}{detail}")


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters. Defaults are the reference configuration."""

    dims: int = 256
    window_c: int = 4  # context positions t-c/2 .. t+c/2, center excluded
    num_skips_k: int = 2  # pairs sampled per center position
    negative_samples: int = 5
    learning_rate: float = 0.1
    batch_size: int = 128
    steps: int = 1_000_000
    seed: int = 1
    loss_every: int = 2000  # batches per loss checkpoint

    def __post_init__(self):
        if self.dims < 1:
            raise ValueError("dims must be >= 1")
        if self.window_c < 2 or self.window_c % 2:
            raise ValueError("window_c must be a positive even integer")
        if not 1 <= self.num_skips_k <= self.window_c:
            raise ValueError("num_skips_k must be in 1..window_c")
        if not 1 <= self.negative_samples <= 64:
            raise ValueError("negative_samples must be in 1..64")
        if not np.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError("learning_rate must be finite and >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.loss_every < 1:
            raise ValueError("loss_every must be >= 1")

    def with_overrides(self, **kwargs) -> "TrainingConfig":
        return replace(self, **kwargs)


@dataclass
class EmbeddingMatrix:
    """The two learned matrices, always float64 and of equal shape."""

    input_vectors: np.ndarray
    output_vectors: np.ndarray

    @classmethod
    def initialize(cls, vocab_size: int, dims: int, rng: Rng) -> "EmbeddingMatrix":
        """Inputs uniform in [-0.5/dims, +0.5/dims), drawn row-major; outputs zero."""
        inp = np.empty((vocab_size, dims), dtype=np.float64)
        flat = inp.reshape(-1)
        stream = BlockRng(rng)
        for a in range(0, len(flat), _INIT_CHUNK):
            chunk = flat[a : a + _INIT_CHUNK]
            np.subtract(stream.floats(len(chunk)), 0.5, out=chunk)
            chunk /= dims
        out = np.zeros((vocab_size, dims), dtype=np.float64)
        return cls(inp, out)

    def copy(self) -> "EmbeddingMatrix":
        return EmbeddingMatrix(self.input_vectors.copy(), self.output_vectors.copy())

    def all_finite(self) -> bool:
        return bool(
            np.isfinite(self.input_vectors).all()
            and np.isfinite(self.output_vectors).all()
        )


@dataclass
class LossTrace:
    """Average-loss checkpoints: (batches completed, mean pair loss)."""

    checkpoints: list[tuple[int, float]] = field(default_factory=list)

    def __post_init__(self):
        steps = [s for s, _ in self.checkpoints]
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("checkpoint steps must be strictly increasing")

    def save_csv(self, path: str) -> None:
        with open(path, "w", encoding="ascii", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "avg_loss"])
            for step, loss in self.checkpoints:
                writer.writerow([step, repr(loss)])

    @classmethod
    def load_csv(cls, path: str) -> "LossTrace":
        with open(path, "r", encoding="ascii", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["step", "avg_loss"]:
                raise ValueError(f"{path}: not a loss trace CSV")
            return cls([(int(row[0]), float(row[1])) for row in reader])


@dataclass(frozen=True)
class NoiseDistribution:
    """Unigram^0.75 noise distribution with inverse-CDF sampling support."""

    probs: np.ndarray
    cdf: np.ndarray

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "NoiseDistribution":
        # the count floor keeps every token drawable (UNK may have count 0)
        weights = np.maximum(counts, 1).astype(np.float64) ** NOISE_POWER
        probs = weights / weights.sum()
        cdf = np.cumsum(probs)
        cdf[-1] = 1.0
        return cls(probs, cdf)

    @classmethod
    def from_vocabulary(cls, vocab: Vocabulary) -> "NoiseDistribution":
        return cls.from_counts(vocab.counts_array())


def neg_sample(noise: NoiseDistribution, rng: Rng, exclude: int) -> int:
    """Draw one noise token, resampling while it equals exclude."""
    if len(noise.cdf) < 2:
        raise ValueError("noise distribution needs at least 2 tokens")
    return _kernels._draw_negative_py(noise.cdf, rng, exclude)


@dataclass
class BatchCursor:
    """Iteration state over a flattened corpus for generate_batch.

    Wraps the piece-wise token stream plus the pending-pair buffer and the
    RNG, in the array layout the kernels share. The cursor walks pieces
    cyclically, so batches can be drawn forever.
    """

    tokens: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    state: np.ndarray  # uint64[1]
    position: np.ndarray  # int64[5]: piece, pos, pend index, pend count, center
    pend: np.ndarray  # int32 scratch for one center's contexts
    total_tokens: int

    @classmethod
    def start(cls, corpus: EncodedCorpus, config: TrainingConfig, rng: Rng) -> "BatchCursor":
        pieces = corpus.trainable_pieces()
        if not pieces:
            raise ValueError("corpus has no piece with at least 2 tokens")
        tokens = np.concatenate(pieces).astype(np.int32, copy=False)
        lengths = np.array([len(p) for p in pieces], dtype=np.int64)
        ends = np.cumsum(lengths)
        starts = ends - lengths
        return cls(
            tokens=tokens,
            starts=starts,
            ends=ends,
            state=np.array([rng.state], dtype=np.uint64),
            position=np.zeros(5, dtype=np.int64),
            pend=np.zeros(config.window_c, dtype=np.int32),
            total_tokens=corpus.total_tokens,
        )


def generate_batch(
    corpus: EncodedCorpus, config: TrainingConfig, cursor: BatchCursor
) -> list[tuple[int, int]]:
    """The next batch_size (center, context) pairs; advances the cursor.

    Each center position contributes min(num_skips_k, available) pairs with
    context offsets drawn without replacement from the +-window_c/2 window,
    truncated at piece boundaries. Pieces shorter than 2 tokens were already
    skipped when the cursor was built.
    """
    if corpus.total_tokens != cursor.total_tokens:
        raise ValueError("cursor was built for a different corpus")
    centers = np.empty(config.batch_size, dtype=np.int32)
    ctxs = np.empty(config.batch_size, dtype=np.int32)
    rng = Rng.from_state(int(cursor.state[0]))
    _kernels._gen_pairs_py(
        cursor.tokens,
        cursor.starts,
        cursor.ends,
        rng,
        cursor.position,
        cursor.pend,
        centers,
        ctxs,
        config.window_c // 2,
        config.num_skips_k,
    )
    cursor.state[0] = rng.state
    return [(int(c), int(t)) for c, t in zip(centers, ctxs)]


def sgd_step(
    emb: EmbeddingMatrix,
    batch: Sequence[tuple[int, int]],
    config: TrainingConfig,
    noise: NoiseDistribution,
    rng: Rng,
) -> float:
    """One SGD step on the batch's mean pair loss; returns that mean loss.

    Negatives are drawn per pair, in batch order, excluding the pair's
    context token. All gradients are taken at the pre-step matrices (so the
    update is learning_rate times the gradient of the mean pair loss); the
    update is then applied, input rows first, then output rows, in pair
    order. emb is mutated in place, and left as it was when a pair loss is
    non-finite (NumericalAbortError).
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    if len(noise.cdf) < 2:
        raise ValueError("noise distribution needs at least 2 tokens")
    centers = np.array([c for c, _ in batch], dtype=np.int32)
    ctxs = np.array([t for _, t in batch], dtype=np.int32)
    negs = np.empty((len(batch), config.negative_samples), dtype=np.int32)
    losses = next(_kernels._sgd_batch_numpy(
        emb.input_vectors, emb.output_vectors, noise.cdf, rng,
        centers, ctxs, negs, config.learning_rate,
    ))
    bad = np.flatnonzero(~np.isfinite(losses))
    if len(bad):
        raise NumericalAbortError(-1, int(bad[0]))
    return float(losses.sum()) / len(batch)


def _validate_corpus(corpus: EncodedCorpus, vocab: Vocabulary) -> None:
    for piece in corpus.pieces:
        if len(piece) and (piece.min() < 0 or piece.max() >= vocab.size):
            raise ValueError("corpus contains token ids outside the vocabulary")


def train(
    corpus: EncodedCorpus,
    vocab: Vocabulary,
    config: TrainingConfig,
) -> tuple[EmbeddingMatrix, LossTrace]:
    """Run config.steps batches of SGD; returns matrices and loss trace.

    Average loss is recorded every config.loss_every batches (partial
    trailing windows are not recorded). The run is deterministic given the
    seed.
    """
    _validate_corpus(corpus, vocab)
    if vocab.size < 2:
        raise ValueError("vocabulary must have at least 2 tokens")
    rng = Rng(config.seed)
    emb = EmbeddingMatrix.initialize(vocab.size, config.dims, rng)
    if config.steps == 0:
        return emb, LossTrace([])
    cursor = BatchCursor.start(corpus, config, rng)
    noise = NoiseDistribution.from_vocabulary(vocab)
    checkpoints: list[tuple[int, float]] = []
    done = 0
    remaining = config.steps
    while remaining > 0:
        chunk = min(config.loss_every, remaining)
        loss_sum, status, abort_step, abort_pair = _kernels._run_window_numpy(
            cursor.tokens,
            cursor.starts,
            cursor.ends,
            emb.input_vectors,
            emb.output_vectors,
            noise.cdf,
            cursor.state,
            cursor.position,
            cursor.pend,
            chunk,
            config.batch_size,
            config.window_c // 2,
            config.num_skips_k,
            config.negative_samples,
            config.learning_rate,
            done,
        )
        if status != 0:
            raise NumericalAbortError(abort_step, abort_pair)
        done += chunk
        remaining -= chunk
        if chunk == config.loss_every:
            checkpoints.append((done, loss_sum / config.loss_every))
            if not emb.all_finite():
                raise NumericalAbortError(done - 1, -1)
    return emb, LossTrace(checkpoints)
