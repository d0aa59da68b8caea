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

import sys
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import _kernels
from .rng import Rng
from .slicer import EncodedCorpus, Vocabulary, write_lines

NOISE_POWER = 0.75
MAX_NOISE_SHARE = 1 - 2**-10  # above it, a negative that excludes the token averages > 1,024 draws
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
        for a in range(0, len(flat), _INIT_CHUNK):
            chunk = flat[a : a + _INIT_CHUNK]
            np.subtract(rng.floats(len(chunk)), 0.5, out=chunk)
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
        rows = [f"{step},{loss!r}" for step, loss in self.checkpoints]
        write_lines(path, ["step,avg_loss"] + rows, "\r\n")


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
    return int(_kernels._draw_negatives_py(noise.cdf, rng, (exclude,), 1)[0, 0])


class BatchCursor:
    """The pair stream of one training run, built once by start.

    Holds the trainable pieces concatenated, with each piece's offset and
    length, the position of the next center, the context picks of a center
    that did not fit in the last batch, and its own Rng (a copy of the
    caller's state), from which fill and train draw in blocks. The window and
    the picks per center come from the config given to start, clamped to the
    longest piece: no window reaches past its piece, so the draws are the same.
    Pieces are walked cyclically, so batches can be drawn forever.
    """

    def __init__(self, corpus: EncodedCorpus, config: TrainingConfig, rng: Rng):
        pieces = corpus.trainable_pieces()
        if not pieces:
            raise ValueError("corpus has no piece with at least 2 tokens")
        self.tokens = np.concatenate(pieces).astype(np.int32, copy=False)
        self.lengths = np.array([len(p) for p in pieces], dtype=np.int64)
        self.offsets = np.cumsum(self.lengths) - self.lengths
        self.half_window = min(config.window_c // 2, int(self.lengths.max()) - 1)
        self.num_skips = min(config.num_skips_k, int(self.lengths.max()) - 1)
        self.total_tokens = corpus.total_tokens
        self.rng = Rng.from_state(rng.state)
        self._next = 0  # position in tokens of the next center
        self._pending = self.tokens[:0]  # picks of the last center not yet handed out
        self._pending_center = 0

    @classmethod
    def start(cls, corpus: EncodedCorpus, config: TrainingConfig, rng: Rng) -> "BatchCursor":
        """The stream at the corpus's first center, drawing from a copy of rng."""
        return cls(corpus, config, rng)

    def fill(self, centers: np.ndarray, ctxs: np.ndarray) -> None:
        """Fill centers/ctxs with the next len(centers) (center, context) pairs.

        Each center position yields min(num_skips, available) context picks,
        drawn without replacement by a partial Fisher-Yates shuffle over the
        in-window positions (piece boundaries truncate the window). Every
        piece has at least 2 tokens, so each center yields a pair and the
        centers a call needs are known before any value is drawn; their
        draws are those of the one-center-at-a-time walk, made at once.
        """
        old = min(len(self._pending), len(centers))
        centers[:old] = self._pending_center
        ctxs[:old] = self._pending[:old]
        self._pending = self._pending[old:]
        need = len(centers) - old
        if need == 0:
            return
        h, k = self.half_window, self.num_skips
        flat = (self._next + np.arange(need)) % len(self.tokens)
        pc = np.searchsorted(self.offsets, flat, side="right") - 1
        p = flat - self.offsets[pc]
        lo = np.maximum(p - h, 0)
        m = np.minimum(p + h, self.lengths[pc] - 1) - lo  # window positions
        kk = np.minimum(m, k)
        n_c = int(np.searchsorted(np.cumsum(kk), need)) + 1
        flat, p, lo, m, kk = flat[:n_c], p[:n_c], lo[:n_c], m[:n_c], kk[:n_c]
        # pick i of a center swaps in position i + below(m - i); below(1) draws nothing
        step = np.arange(k)
        picked = step < kk[:, None]
        bounds = np.where(picked, m[:, None] - step, 1)
        drawn = self.rng.below_each(bounds.reshape(-1)).astype(np.int64)
        swap = step + drawn.reshape(bounds.shape)
        avail = lo[:, None] + np.arange(2 * h)
        avail += avail >= p[:, None]  # the center is not in its own window
        rows = np.arange(n_c)
        picks = np.empty_like(swap)
        for i in range(k):  # column i is not read again after pick i
            picks[:, i] = avail[rows, swap[:, i]]
            avail[rows, swap[:, i]] = avail[:, i]
        pair_ctx = self.tokens[((flat - p)[:, None] + picks)[picked]]  # flat - p: piece offsets
        pair_cen = np.repeat(self.tokens[flat], kk)
        centers[old:] = pair_cen[:need]
        ctxs[old:] = pair_ctx[:need]
        self._pending = pair_ctx[need:]
        self._pending_center = pair_cen[-1]
        self._next = (int(flat[-1]) + 1) % len(self.tokens)


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
    cursor.fill(centers, ctxs)
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
    trailing windows are not recorded). The matrices are checked at each
    checkpoint and after the last batch; a non-finite loss or value raises
    NumericalAbortError. The run is deterministic given the seed.
    """
    _validate_corpus(corpus, vocab)
    if vocab.size < 2:
        raise ValueError("vocabulary must have at least 2 tokens")
    # vectors or negatives past sys.maxsize bytes fit no address space: numpy says ValueError
    for name, nbytes in (("dims", vocab.size * config.dims * 8),
                         ("batch_size", config.batch_size * config.negative_samples * 4)):
        if nbytes > sys.maxsize:
            raise MemoryError(f"{name} {getattr(config, name)} asks for an array of {nbytes} bytes")
    noise = NoiseDistribution.from_vocabulary(vocab)
    top = int(noise.probs.argmax())
    if noise.probs[top] > MAX_NOISE_SHARE:
        raise ValueError(f"{vocab.form_of(top)} holds 1 - {1 - noise.probs[top]:.3g} of the noise "
                         "mass: each negative that excludes it needs over 1,024 draws")
    rng = Rng(config.seed)
    emb = EmbeddingMatrix.initialize(vocab.size, config.dims, rng)
    if config.steps == 0:
        return emb, LossTrace([])
    cursor = BatchCursor.start(corpus, config, rng)
    centers = np.empty(config.batch_size, np.int32)
    ctxs = np.empty(config.batch_size, np.int32)
    negs = np.empty((config.batch_size, config.negative_samples), np.int32)
    batches = _kernels._sgd_batch_numpy(
        emb.input_vectors, emb.output_vectors, noise.cdf, cursor.rng,
        centers, ctxs, negs, config.learning_rate,
    )
    checkpoints: list[tuple[int, float]] = []
    loss_sum = 0.0
    for step in range(config.steps):
        cursor.fill(centers, ctxs)
        losses = next(batches)
        bad = np.flatnonzero(~np.isfinite(losses))
        if len(bad):
            raise NumericalAbortError(step, int(bad[0]))
        loss_sum += float(losses.sum()) / config.batch_size
        if (step + 1) % config.loss_every == 0:
            checkpoints.append((step + 1, loss_sum / config.loss_every))
            loss_sum = 0.0
            if not emb.all_finite():
                raise NumericalAbortError(step, -1)
    if config.steps % config.loss_every and not emb.all_finite():
        raise NumericalAbortError(config.steps - 1, -1)
    return emb, LossTrace(checkpoints)
