"""Per-layer measurement: a span tracer wrapped around the library from outside,
plus direct timings of the public functions the CLI reaches only indirectly.

Spans are recorded in memory as (name, start, end, parent). ``cli.main`` calls
reach the library through module attributes, so wrapping those attributes
(``slicevec.cli.parse_midi``, ``slicevec.analysis.key_similarity_matrix``...)
times every call without touching the program. A name that a later version of
the program no longer has is skipped and listed in ``unwrapped``.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager


# per-layer metric -> (unit, better); counts describe the work done and are
# compared only to confirm that two runs did the same work
PER_LAYER = {
    "midi.parse_s": ("s", "lower"),
    "midi.notes": ("count", "higher"),
    "midi.write_s": ("s", "lower"),
    "slicer.slice_s": ("s", "lower"),
    "slicer.beats": ("count", "higher"),
    "slicer.vocab_s": ("s", "lower"),
    "slicer.vocab_size": ("count", "higher"),
    "slicer.cache_save_s": ("s", "lower"),
    "slicer.cache_load_s": ("s", "lower"),
    "slicer.encode_s": ("s", "lower"),
    "rng.next_u64_per_s": ("draws/s", "higher"),
    "trainer.init_s": ("s", "lower"),
    "trainer.pairgen_pairs_per_s": ("pairs/s", "higher"),
    "trainer.negatives_per_s": ("draws/s", "higher"),
    "trainer.sgd_pairs_per_s": ("pairs/s", "higher"),
    "trainer.train_pairs_per_s": ("pairs/s", "higher"),
    "trainer.pairs": ("count", "higher"),
    "embedding.save_s": ("s", "lower"),
    "embedding.load_s": ("s", "lower"),
    "embedding.nearest_per_s": ("queries/s", "higher"),
    "analysis.chords_s": ("s", "lower"),
    "analysis.keys_s": ("s", "lower"),
    "analysis.analogy_s": ("s", "lower"),
    "generator.rewrite_beats_per_s": ("beats/s", "higher"),
    "generator.beats": ("count", "higher"),
    "generator.emit_s": ("s", "lower"),
    "generator.distinct_share": ("ratio", "lower"),
    "synth.corpus_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list = []
        self.unwrapped: list[str] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr by a spanned wrapper; count(result) adds to counts[name]."""
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.unwrapped.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        target = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = target(*args, **kwargs)
            if count is not None:
                tracer.counts[name] += count(result)
            return result

        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(lambda cls, *a, **k: wrapper(*a, **k)))
        else:
            setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def summary(self, ranges: list[tuple[int, int]]) -> dict:
        """Inclusive and self seconds, and call counts, per span name, over span index ranges."""
        picked = [i for lo, hi in ranges for i in range(lo, hi)]
        child: dict[int, float] = defaultdict(float)
        for i in picked:
            _, start, end, parent = self.spans[i]
            if parent >= 0:
                child[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i in picked:
            name, start, end, _ = self.spans[i]
            inclusive[name] += end - start
            own[name] += (end - start) - child[i]
            calls[name] += 1
        return {"inclusive": dict(inclusive), "self": dict(own), "calls": dict(calls)}


def install_wraps(tracer: Tracer) -> None:
    """Wrap each library entry point that ``cli.main`` reaches."""
    from slicevec import analysis, cli, generator, synth, trainer

    tracer.wrap(cli, "parse_midi", "midi.parse", count=lambda piece: len(piece.events))
    tracer.wrap(synth, "write_smf", "midi.write")
    tracer.wrap(generator, "write_smf", "midi.write")
    tracer.wrap(cli, "slices_from_piece", "slicer.slice", count=len)
    tracer.wrap(cli, "build_vocabulary", "slicer.vocab")
    tracer.wrap(cli, "save_corpus", "slicer.cache_save")
    tracer.wrap(cli, "save_vocabulary", "slicer.cache_save")
    tracer.wrap(cli, "load_corpus", "slicer.cache_load")
    tracer.wrap(cli, "load_vocabulary", "slicer.cache_load")
    tracer.wrap(cli, "encode_corpus", "slicer.encode")
    tracer.wrap(cli, "train", "trainer.train")
    tracer.wrap(trainer.EmbeddingMatrix, "initialize", "trainer.init")
    tracer.wrap(cli, "save_embedding", "embedding.save")
    tracer.wrap(cli, "load_embedding", "embedding.load")
    tracer.wrap(analysis, "chord_distance_profile", "analysis.chords")
    tracer.wrap(analysis, "key_similarity_matrix", "analysis.keys")
    tracer.wrap(analysis, "analogy_angle_matrix", "analysis.analogy")
    tracer.wrap(generator, "rewrite_piece", "generator.rewrite", count=lambda r: len(r[0]))
    tracer.wrap(generator, "emit_midi", "generator.emit")
    tracer.wrap(synth, "synth_corpus", "synth.corpus")


# ---------------------------------------------------------------------------
# direct timings of functions the CLI calls only from inside other functions


def micro_rates(w, seed: int, probe, notes: list[str]) -> dict[str, float]:
    """Rates of rng, pair generation, negatives, SGD and nearest, on the pass's caches.

    Each rate is work over the fastest of a few calls, timed at the probe's
    reference speed. A function the program no longer has leaves its rate at
    0 and is named in notes.
    """
    from slicevec import embedding, rng, slicer, trainer
    from workloads import CORPUS_CACHE, EMBEDDING, VOCAB_CACHE, train_seed

    def best_rate(run, work: int, reps: int = 3) -> float:
        return work / min(probe.timed(run)[1] for _ in range(reps))

    def available(module, *names) -> bool:
        missing = [n for n in names if not hasattr(module, n)]
        notes.extend(f"{module.__name__}.{n} is missing" for n in missing)
        return not missing

    rates = dict.fromkeys(
        ("rng.next_u64_per_s", "trainer.pairgen_pairs_per_s", "trainer.negatives_per_s",
         "trainer.sgd_pairs_per_s", "embedding.nearest_per_s"),
        0.0,
    )
    if available(rng, "Rng"):
        n = 100_000

        def draw():
            r = rng.Rng(seed)
            for _ in range(n):
                r.next_u64()

        rates["rng.next_u64_per_s"] = best_rate(draw, n)

    if available(rng, "Rng") and available(slicer, "load_corpus", "load_vocabulary", "encode_corpus") and available(
        trainer, "TrainingConfig", "BatchCursor", "EmbeddingMatrix", "NoiseDistribution",
        "generate_batch", "neg_sample", "sgd_step",
    ):
        vocab = slicer.load_vocabulary(VOCAB_CACHE)
        corpus = slicer.encode_corpus(slicer.load_corpus(CORPUS_CACHE), vocab)
        config = trainer.TrainingConfig(
            dims=w.dims, window_c=w.window_c, num_skips_k=w.num_skips_k,
            negative_samples=w.negative_samples, learning_rate=w.learning_rate,
            batch_size=w.batch_size, steps=w.steps, seed=train_seed(seed),
            loss_every=w.loss_every,
        )
        n_batches = 30

        def pairgen():
            cursor = trainer.BatchCursor.start(corpus, config, rng.Rng(config.seed))
            return [trainer.generate_batch(corpus, config, cursor) for _ in range(n_batches)]

        rates["trainer.pairgen_pairs_per_s"] = best_rate(pairgen, n_batches * w.batch_size)
        batches = pairgen()
        noise = trainer.NoiseDistribution.from_vocabulary(vocab)
        excludes = [t for batch in batches for _, t in batch] * 5

        def negatives():
            r = rng.Rng(config.seed + 7)
            for exclude in excludes:
                trainer.neg_sample(noise, r, exclude)

        rates["trainer.negatives_per_s"] = best_rate(negatives, len(excludes))
        emb = trainer.EmbeddingMatrix.initialize(vocab.size, config.dims, rng.Rng(config.seed))

        def sgd():
            e, r = emb.copy(), rng.Rng(config.seed + 11)
            for batch in batches:
                trainer.sgd_step(e, batch, config, noise, r)

        rates["trainer.sgd_pairs_per_s"] = best_rate(sgd, n_batches * w.batch_size)

    if available(embedding, "load_embedding", "nearest"):
        space = embedding.load_embedding(EMBEDDING)
        queries = range(1, min(space.size, 65))

        def near():
            for q in queries:
                embedding.nearest(space, q, w.top_n)

        rates["embedding.nearest_per_s"] = best_rate(near, len(queries), reps=2)
    return rates


def per_layer_metrics(summary: dict, counts: dict, w, distinct_share: float, vocab_size: int) -> dict[str, float]:
    """Map a traced pass's span summary onto the per-layer metric names."""
    inc = summary["inclusive"]

    def t(name: str) -> float:
        return float(inc.get(name, 0.0))

    def rate(work: float, name: str) -> float:
        return work / t(name) if t(name) > 0 else 0.0

    return {
        "midi.parse_s": t("midi.parse"),
        "midi.notes": float(counts.get("midi.parse", 0)),
        "midi.write_s": t("midi.write"),
        "slicer.slice_s": t("slicer.slice"),
        "slicer.beats": float(counts.get("slicer.slice", 0)),
        "slicer.vocab_s": t("slicer.vocab"),
        "slicer.vocab_size": float(vocab_size),
        "slicer.cache_save_s": t("slicer.cache_save"),
        "slicer.cache_load_s": t("slicer.cache_load"),
        "slicer.encode_s": t("slicer.encode"),
        "trainer.init_s": t("trainer.init"),
        "trainer.train_pairs_per_s": rate(w.pairs, "trainer.train"),
        "trainer.pairs": float(w.pairs) if t("trainer.train") > 0 else 0.0,
        "embedding.save_s": t("embedding.save"),
        "embedding.load_s": t("embedding.load"),
        "analysis.chords_s": t("analysis.chords"),
        "analysis.keys_s": t("analysis.keys"),
        "analysis.analogy_s": t("analysis.analogy"),
        "generator.rewrite_beats_per_s": rate(counts.get("generator.rewrite", 0), "generator.rewrite"),
        "generator.beats": float(counts.get("generator.rewrite", 0)),
        "generator.emit_s": t("generator.emit"),
        "generator.distinct_share": distinct_share,
        "synth.corpus_s": t("synth.corpus"),
        "cli.self_s": float(summary["self"].get("cli.main", 0.0)),
    }
