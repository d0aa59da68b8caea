"""Command-line pipeline: ingest, synth, train, analyze, generate, stats.

Exit codes: 0 success, 1 usage or config error, 2 data error (unreadable or
malformed inputs), 3 numerical abort during training.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from dataclasses import fields

from . import analysis, generator, synth
from .config import VALUE_PARSERS, ConfigError, PipelineConfig, resolve_config
from .embedding import EmbeddingSpace, load_embedding, save_embedding
from .midi import MidiParseError, parse_midi
from .slicer import (
    build_vocabulary,
    encode_corpus,
    load_corpus,
    load_vocabulary,
    save_corpus,
    save_vocabulary,
    slices_from_piece,
)
from .trainer import NumericalAbortError, TrainingConfig, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class DataError(Exception):
    """Input files missing, unreadable, or inconsistent."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this pipeline uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _config_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--config", default=None, help="config file (key = value lines)")
    for f in fields(PipelineConfig):
        flag = "--" + f.name.replace("_", "-")
        parent.add_argument(flag, default=None, type=VALUE_PARSERS[f.type], dest=f.name)
    return parent


def build_parser() -> _Parser:
    parser = _Parser(prog="slicevec", description=__doc__.splitlines()[0])
    common = _config_parent()
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sub.add_parser("ingest", parents=[common], help="slice a MIDI directory into caches")

    p_synth = sub.add_parser("synth", parents=[common], help="write a synthetic chord corpus")
    p_synth.add_argument("--out-dir", default=None, help="output directory (default: corpus_dir)")
    p_synth.add_argument("--keys", default="all", help='"all" or comma-separated key names')
    p_synth.add_argument("--modes", default="major,minor", help="comma-separated modes")
    p_synth.add_argument("--pieces-per-key", type=int, default=4)
    p_synth.add_argument("--bars", type=int, default=16, help="bars per piece (4 beats each)")

    sub.add_parser("train", parents=[common], help="train embeddings from the caches")

    p_an = sub.add_parser("analyze", parents=[common], help="export analysis matrices")
    p_an.add_argument("which", choices=("chords", "keys", "analogy"))
    p_an.add_argument("--out", default=None, help="output CSV (default: <which>.csv)")
    p_an.add_argument("--tonics", default="C,G,F", help="chords: comma-separated tonic roots")
    p_an.add_argument("--quality", default=analysis.MAJOR, choices=(analysis.MAJOR, analysis.MINOR))
    p_an.add_argument("--pieces-dir", default=None, help="keys: directory of key-named MIDI files")
    p_an.add_argument("--mode", default=analysis.MAJOR, choices=(analysis.MAJOR, analysis.MINOR))
    p_an.add_argument("--roles", default="I,V", help="analogy: comma-separated role pair")

    p_gen = sub.add_parser("generate", parents=[common], help="rewrite a piece by slice substitution")
    p_gen.add_argument("--midi-in", required=True)
    p_gen.add_argument("--midi-out", required=True)
    p_gen.add_argument("--diagnostics", default=None, help="per-beat diagnostics CSV")

    sub.add_parser("stats", parents=[common], help="summarize the corpus caches")
    return parser


def _midi_paths(directory: str) -> list[str]:
    if not os.path.isdir(directory):
        raise DataError(f"not a directory: {directory}")
    return sorted(
        glob.glob(os.path.join(directory, "*.mid"))
        + glob.glob(os.path.join(directory, "*.midi"))
    )


def _parse_midi_files(paths: list[str]) -> list[tuple[str, object]]:
    """(path, MidiPiece) for each file that parses; the others are skipped."""
    parsed = []
    for path in paths:
        try:
            with open(path, "rb") as fh:
                piece = parse_midi(fh.read())
        except (MidiParseError, OSError) as exc:
            print(f"skipping {path}: {exc}", file=sys.stderr)
            continue
        parsed.append((path, piece))
    return parsed


def _check_writable(paths: list[str]) -> None:
    """Open (not truncate) every output before any is written; on OSError remove new ones."""
    new = [path for path in paths if not os.path.exists(path)]
    try:
        for path in paths:
            open(path, "ab").close()
    except OSError:
        for path in new:
            if os.path.exists(path):
                os.remove(path)
        raise


def cmd_ingest(args, cfg: PipelineConfig) -> int:
    parsed = _parse_midi_files(_midi_paths(cfg.corpus_dir))
    if not parsed:
        raise DataError(f"no parseable MIDI files in {cfg.corpus_dir}")
    pieces = [slices_from_piece(piece) for _, piece in parsed]
    unclosed = sum(piece.unclosed_notes for _, piece in parsed)
    if unclosed:
        print(f"warning: {unclosed} unclosed notes were closed at end of track", file=sys.stderr)
    all_slices = [s for piece in pieces for s in piece]
    if not all_slices:
        raise DataError("corpus contains no beats; cannot build a vocabulary")
    vocab = build_vocabulary(iter(all_slices), cfg.vocab_size)
    _check_writable([cfg.corpus_cache, cfg.vocab_cache])
    save_corpus(cfg.corpus_cache, pieces)
    save_vocabulary(cfg.vocab_cache, vocab)
    unique = len({s.form for s in all_slices})
    print(f"pieces: {len(pieces)}")
    print(f"unique slices: {unique}")
    print(f"occurrences folded into UNK: {vocab.count_of(vocab.unk_id)}")
    print(f"wrote {cfg.corpus_cache} and {cfg.vocab_cache}")
    return EXIT_OK


def cmd_synth(args, cfg: PipelineConfig) -> int:
    out_dir = args.out_dir or cfg.corpus_dir
    keys = list(analysis.CIRCLE_OF_FIFTHS) if args.keys == "all" else [
        k.strip() for k in args.keys.split(",") if k.strip()
    ]
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not keys:
        raise ConfigError("key list must not be empty")
    if not modes:
        raise ConfigError("mode list must not be empty")
    try:
        paths = synth.synth_corpus(
            out_dir, keys, modes, args.pieces_per_key, args.bars, cfg.seed
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    print(f"wrote {len(paths)} pieces to {out_dir}")
    return EXIT_OK


def _load_caches(cfg: PipelineConfig):
    for path in (cfg.corpus_cache, cfg.vocab_cache):
        if not os.path.exists(path):
            raise DataError(f"missing cache file: {path} (run ingest first)")
    try:
        pieces = load_corpus(cfg.corpus_cache)
        vocab = load_vocabulary(cfg.vocab_cache)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    return pieces, vocab


def cmd_train(args, cfg: PipelineConfig) -> int:
    pieces, vocab = _load_caches(cfg)
    corpus = encode_corpus(pieces, vocab)
    try:
        tconfig = TrainingConfig(**{f.name: getattr(cfg, f.name) for f in fields(TrainingConfig)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        emb, trace = train(corpus, vocab, tconfig)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    space = EmbeddingSpace.from_training(vocab, emb)
    _check_writable([cfg.embedding_path, cfg.loss_csv])
    save_embedding(cfg.embedding_path, space)
    trace.save_csv(cfg.loss_csv)
    if trace.checkpoints:
        step, loss = trace.checkpoints[-1]
        print(f"final checkpoint: step {step}, average loss {loss:.6f}")
    print(f"wrote {cfg.embedding_path} and {cfg.loss_csv}")
    return EXIT_OK


def _load_space(cfg: PipelineConfig) -> EmbeddingSpace:
    if not os.path.exists(cfg.embedding_path):
        raise DataError(f"missing embedding file: {cfg.embedding_path} (run train first)")
    try:
        return load_embedding(cfg.embedding_path)
    except ValueError as exc:
        raise DataError(str(exc)) from None


def cmd_analyze(args, cfg: PipelineConfig) -> int:
    space = _load_space(cfg)
    out = args.out or f"{args.which}.csv"
    if args.which == "chords":
        return _analyze_chords(args, space, out)
    if args.which == "keys":
        return _analyze_keys(args, cfg, space, out)
    return _analyze_analogy(args, space, out)


def _analyze_chords(args, space: EmbeddingSpace, out: str) -> int:
    tonics = [t.strip() for t in args.tonics.split(",") if t.strip()]
    if not tonics:
        raise ConfigError("tonic list must not be empty")
    for name in tonics:
        if name not in analysis.PC_OF_NAME:
            raise ConfigError(f"unknown tonic {name!r}")
    roles = analysis.MAJOR_ROLES if args.quality == analysis.MAJOR else analysis.MINOR_ROLES
    lines = ["tonic," + ",".join(roles)]
    for name in tonics:
        tonic = analysis.ChordSpec(analysis.PC_OF_NAME[name], args.quality)
        try:
            profile = analysis.chord_distance_profile(space, tonic, roles)
        except KeyError as exc:
            raise DataError(str(exc)) from None
        cells = []
        for role in roles:
            value = profile[role]
            if value is None:
                print(f"warning: {role} of {name} is not in the vocabulary", file=sys.stderr)
                cells.append("")
            else:
                cells.append(f"{value:.6g}")
        lines.append(name + "," + ",".join(cells))
    with open(out, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {out}")
    return EXIT_OK


def _analyze_keys(args, cfg: PipelineConfig, space: EmbeddingSpace, out: str) -> int:
    pieces_dir = args.pieces_dir or cfg.corpus_dir
    root_of = {}  # only files named for the requested mode are opened
    for path in _midi_paths(pieces_dir):
        try:
            root, mode = synth.parse_key_filename(path)
        except ValueError as exc:
            print(f"skipping {path}: {exc}", file=sys.stderr)
            continue
        if mode == args.mode:
            root_of[path] = root
    if not root_of:
        raise DataError(f"no {args.mode} pieces with key-labeled filenames in {pieces_dir}")
    labeled = [
        (slices_from_piece(piece), root_of[path])
        for path, piece in _parse_midi_files(list(root_of))
    ]
    if not labeled:
        raise DataError(
            f"no {args.mode} piece with a key-labeled filename in {pieces_dir} parsed "
            f"({len(root_of)} skipped)"
        )
    try:
        matrix = analysis.key_similarity_matrix(space, labeled, args.mode)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    matrix.save_csv(out)
    print(f"wrote {out} from {len(labeled)} pieces")
    return EXIT_OK


def _analyze_analogy(args, space: EmbeddingSpace, out: str) -> int:
    roles = [r.strip() for r in args.roles.split(",") if r.strip()]
    if len(roles) != 2:
        raise ConfigError(f"--roles needs exactly two roles, got {args.roles!r}")
    for role in roles:
        if role not in analysis.ROLE_TABLE[args.mode]:
            raise ConfigError(f"role {role!r} is not defined for {args.mode} keys")
    matrix = analysis.analogy_angle_matrix(space, (roles[0], roles[1]), args.mode)
    matrix.save_csv(out)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_generate(args, cfg: PipelineConfig) -> int:
    space = _load_space(cfg)
    try:
        with open(args.midi_in, "rb") as fh:
            piece = parse_midi(fh.read())
    except (MidiParseError, OSError) as exc:
        raise DataError(f"{args.midi_in}: {exc}") from None
    slices = slices_from_piece(piece)
    try:
        gconfig = generator.GeneratorConfig(
            top_n=cfg.top_n, exclude_identity=cfg.exclude_identity
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    substitutes, diagnostics = generator.rewrite_piece(slices, space, gconfig)
    data = generator.emit_midi(piece, substitutes)
    _check_writable([args.midi_out] + ([args.diagnostics] if args.diagnostics else []))
    with open(args.midi_out, "wb") as fh:
        fh.write(data)
    if args.diagnostics:
        generator.save_diagnostics(args.diagnostics, diagnostics)
        print(f"wrote {args.diagnostics}")
    changed = sum(1 for d in diagnostics if d.original != d.substitute)
    print(f"substituted {changed} of {len(diagnostics)} beats; wrote {args.midi_out}")
    return EXIT_OK


def cmd_stats(args, cfg: PipelineConfig) -> int:
    pieces, vocab = _load_caches(cfg)
    total = sum(len(p) for p in pieces)
    unk = vocab.count_of(vocab.unk_id)
    print(f"pieces: {len(pieces)}")
    print(f"total slices: {total}")
    print(f"vocabulary size: {vocab.size}")
    if total:
        print(f"UNK occurrences: {unk} ({100.0 * unk / total:.2f}% of tokens)")
    ranked = sorted(vocab.items(), key=lambda item: (-item[2], item[1]))
    print("most frequent slices:")
    for _, form, count in [item for item in ranked if item[0] != vocab.unk_id][:10]:
        print(f"  {form}: {count}")
    return EXIT_OK


_COMMANDS = {
    "ingest": cmd_ingest,
    "synth": cmd_synth,
    "train": cmd_train,
    "analyze": cmd_analyze,
    "generate": cmd_generate,
    "stats": cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    flag_values = {f.name: getattr(args, f.name, None) for f in fields(PipelineConfig)}
    try:
        cfg = resolve_config(flag_values, args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(cfg.dump())
    try:
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalAbortError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:  # e.g. an output path that cannot be written
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
