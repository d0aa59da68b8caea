"""Output checks, each against an independent computation or a property of the method.

Nothing here calls the program's own parsers, slicers, rankings or matrix
code. The expected beats come from ``synth.generate_piece``, the generator of
the benchmark's inputs; everything downstream of the MIDI files (forms,
counts, cosine geometry, the substitution rule, MIDI re-slicing) is
recomputed here with numpy and the standard library. Every check returns a
list of error strings, empty when the output is correct.
"""

from __future__ import annotations

import csv
import io
import math
import os
import struct
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

CIRCLE = ("C", "G", "D", "A", "E", "B", "F#", "Db", "Ab", "Eb", "Bb", "F")
PC = {"C": 0, "G": 7, "D": 2, "A": 9, "E": 4, "B": 11, "F#": 6, "Db": 1, "Ab": 8, "Eb": 3, "Bb": 10, "F": 5}
# functional role -> (semitones above the tonic, triad intervals), major keys
MAJOR_ROLES = (
    ("I", 0, (0, 4, 7)), ("V", 7, (0, 4, 7)), ("IV", 5, (0, 4, 7)), ("vi", 9, (0, 3, 7)),
    ("IIIb", 3, (0, 4, 7)), ("IIb", 1, (0, 4, 7)), ("v", 7, (0, 3, 7)),
)
TONICS = ("C", "G", "F")
TIE = 1e-12  # near-ties in the substitution rule may resolve either way
MAX_ERRORS = 5


def form_of(pcs) -> str:
    pcs = sorted({int(p) % 12 for p in pcs})
    return ".".join(str(p) for p in pcs) if pcs else "R"


def triad_form(root: int, intervals) -> str:
    return form_of((root + i) % 12 for i in intervals)


@dataclass
class Piece:
    name: str  # corpus file name
    root: int
    mode: str
    forms: list[str]  # one per beat


def expected_pieces(w, seed: int) -> list[Piece]:
    """The workload's pieces in ingest order (sorted file names), from the synth generator."""
    from slicevec.synth import generate_piece, piece_rng
    from workloads import synth_seed

    pieces = []
    for key in CIRCLE:
        for mode in w.modes:
            for index in range(w.pieces_per_key):
                rng = piece_rng(synth_seed(seed), PC[key], mode, index)
                beats = generate_piece(PC[key], mode, w.bars, rng)
                name = f"{key.replace('#', 's')}_{mode}_{index:02d}.mid"
                pieces.append(Piece(name, PC[key], mode, [form_of(b) for b in beats]))
    pieces.sort(key=lambda p: p.name)
    return pieces


def expected_vocab(pieces: list[Piece], vocab_size: int) -> tuple[list[str], list[int]]:
    """(forms, counts) in id order, UNK first, by a Counter recount."""
    counts = Counter(f for p in pieces for f in p.forms)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    kept = ranked[: vocab_size - 1]
    unk = sum(c for _, c in ranked[vocab_size - 1:])
    return ["UNK"] + [f for f, _ in kept], [unk] + [c for _, c in kept]


def _header(line: str, magic: str, n_fields: int) -> list[str] | None:
    parts = line.split()
    if len(parts) != n_fields or parts[0] != magic:
        return None
    return parts


def check_corpus(text: str, pieces: list[Piece]) -> list[str]:
    lines = text.split("\n")
    head = _header(lines[0], "SLICECORPUS", 3)
    if head is None or head[2] != str(len(pieces)):
        return [f"corpus.txt: header {lines[0]!r} does not announce {len(pieces)} pieces"]
    errors = []
    body = lines[1:]
    for i, piece in enumerate(pieces):
        tokens = body[i].split() if i < len(body) else []
        if len(tokens) == len(piece.forms) + 1:
            tokens = tokens[1:]  # a later format may lead with the piece name
        if tokens != piece.forms:
            errors.append(f"corpus.txt: piece {i} ({piece.name}) differs from the synthesized beats")
    if any(line.strip() for line in body[len(pieces):]):
        errors.append("corpus.txt: content after the announced pieces")
    return errors[:MAX_ERRORS]


def check_vocab(text: str, forms: list[str], counts: list[int]) -> list[str]:
    lines = text.rstrip("\n").split("\n")
    head = _header(lines[0], "SLICEVOCAB", 3)
    if head is None or head[2] != str(len(forms)):
        return [f"vocab.txt: header {lines[0]!r}, expected size {len(forms)}"]
    want = [f"{i} {f} {c}" for i, (f, c) in enumerate(zip(forms, counts))]
    got = lines[1:]
    for i in range(max(len(got), len(want))):
        if i >= len(got) or i >= len(want) or got[i] != want[i]:
            expected = want[i] if i < len(want) else "no line"
            return [f"vocab.txt: line for id {i} differs from the recount ({expected!r})"]
    return []


def parse_embedding(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.rstrip("\n").split("\n")
    head = _header(lines[0], "SLICEVEC", 4)
    if head is None:
        raise ValueError(f"embedding.txt: bad header {lines[0]!r}")
    size, dims = int(head[2]), int(head[3])
    if len(lines) != size + 1:
        raise ValueError(f"embedding.txt: {len(lines) - 1} rows, header says {size}")
    forms, rows = [], []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != dims + 1:
            raise ValueError("embedding.txt: a row has the wrong width")
        forms.append(parts[0])
        rows.append([float(v) for v in parts[1:]])
    return forms, np.array(rows, dtype=np.float64).reshape(size, dims)


def check_embedding(text: str, forms: list[str], dims: int) -> list[str]:
    try:
        got_forms, vecs = parse_embedding(text)
    except ValueError as exc:
        return [str(exc)]
    errors = []
    if got_forms != forms:
        errors.append("embedding.txt: row forms are not the vocabulary in id order")
    if vecs.shape[1] != dims:
        errors.append(f"embedding.txt: {vecs.shape[1]} dims, expected {dims}")
    if not np.isfinite(vecs).all():
        errors.append("embedding.txt: non-finite values")
    return errors


def check_loss(text: str, loss_every: int, steps: int) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["step", "avg_loss"]:
        return ["loss.csv: missing step,avg_loss header"]
    try:
        points = [(int(r[0]), float(r[1])) for r in rows[1:] if r]
    except (ValueError, IndexError):
        return ["loss.csv: unparseable row"]
    want_steps = list(range(loss_every, steps + 1, loss_every))
    errors = []
    if [s for s, _ in points] != want_steps:
        errors.append(f"loss.csv: checkpoint steps {[s for s, _ in points]}, expected {want_steps}")
    losses = [v for _, v in points]
    if len(losses) < 2 or not all(math.isfinite(v) for v in losses):
        errors.append("loss.csv: fewer than two finite windows")
    elif not losses[-1] < losses[0]:
        errors.append(f"loss.csv: loss did not descend ({losses[0]} -> {losses[-1]})")
    return errors


# ---------------------------------------------------------------------------
# cosine geometry, recomputed


def cos_sim(a: np.ndarray, b: np.ndarray) -> float:
    if np.array_equal(a, b):
        return 1.0
    if np.array_equal(a, -b):
        return -1.0
    s = float(a @ b) / (math.sqrt(float(a @ a)) * math.sqrt(float(b @ b)))
    return min(1.0, max(-1.0, s))


def agrees6(cell: str, value: float) -> bool:
    """cell, written to 6 significant digits, matches value (NaN as an empty cell)."""
    if math.isnan(value):
        return cell == ""
    if cell == "":
        return False
    if cell == f"{value:.6g}":
        return True
    ulp = 10.0 ** (math.floor(math.log10(abs(value))) - 5) if value else 1e-300
    return abs(float(cell) - value) <= ulp * 1.0001


def _read_matrix(text: str, name: str, degrees: bool) -> tuple[list[list[str]], list[str]]:
    errors = []
    lines = text.splitlines()
    if degrees:
        if not lines or lines[0].strip() != "# units: degrees":
            errors.append(f"{name}: missing '# units: degrees' line")
        else:
            lines = lines[1:]
    rows = [r for r in csv.reader(lines) if r]
    if not rows or rows[0] != [""] + list(CIRCLE) or [r[0] for r in rows[1:]] != list(CIRCLE):
        return [], errors + [f"{name}: labels are not the circle of fifths"]
    cells = [r[1:] for r in rows[1:]]
    if any(len(r) != 12 for r in cells):
        return [], errors + [f"{name}: not a 12x12 matrix"]
    return cells, errors


def _compare_matrix(cells, values: np.ndarray, name: str, diagonal_zero: bool) -> list[str]:
    errors = []
    for i in range(12):
        for j in range(12):
            if cells[i][j] != cells[j][i]:
                errors.append(f"{name}: not symmetric at ({CIRCLE[i]}, {CIRCLE[j]})")
            if diagonal_zero and i == j and cells[i][i] not in ("0", ""):
                errors.append(f"{name}: diagonal {CIRCLE[i]} is {cells[i][i]!r}, not 0")
            if not agrees6(cells[i][j], values[i, j]):
                errors.append(
                    f"{name}: ({CIRCLE[i]}, {CIRCLE[j]}) is {cells[i][j]!r}, recomputed {values[i, j]:.6g}"
                )
    return errors[:MAX_ERRORS]


def check_chords(text: str, forms: list[str], vecs: np.ndarray) -> list[str]:
    index = {f: i for i, f in enumerate(forms)}
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if not rows or rows[0] != ["tonic"] + [r for r, _, _ in MAJOR_ROLES]:
        return ["chords.csv: header is not tonic plus the major roles"]
    if [r[0] for r in rows[1:]] != list(TONICS):
        return [f"chords.csv: rows are not the tonics {TONICS}"]
    errors = []
    for row in rows[1:]:
        root = PC[row[0]]
        tonic = index.get(triad_form(root, (0, 4, 7)))
        if tonic is None:
            errors.append(f"chords.csv: tonic {row[0]} out of vocabulary, yet a row was written")
            continue
        for cell, (role, shift, intervals) in zip(row[1:], MAJOR_ROLES):
            target = index.get(triad_form(root + shift, intervals))
            if target is None:
                value = math.nan
            elif target == tonic:
                value = 0.0
            else:
                value = 1.0 - cos_sim(vecs[tonic], vecs[target])
            if not agrees6(cell, value):
                errors.append(f"chords.csv: {row[0]} {role} is {cell!r}, recomputed {value:.6g}")
    return errors[:MAX_ERRORS]


def key_matrix(pieces: list[Piece], forms: list[str], vecs: np.ndarray) -> np.ndarray:
    """Mean pairwise centroid distance of the 12 transpositions of each major piece."""
    lut = np.full(4096, -1, dtype=np.int64)
    for i, f in enumerate(forms):
        if f != "UNK":
            mask = 0 if f == "R" else sum(1 << int(p) for p in f.split("."))
            lut[mask] = i
    roots = [PC[k] for k in CIRCLE]
    total = np.zeros((12, 12))
    used = 0
    for piece in pieces:
        if piece.mode != "major":
            continue
        masks = np.array(
            [0 if f == "R" else sum(1 << int(p) for p in f.split(".")) for f in piece.forms],
            dtype=np.int64,
        )
        centroids = []
        for target in roots:
            t = (target - piece.root) % 12
            rotated = ((masks << t) | (masks >> (12 - t))) & 0xFFF
            rows = lut[rotated]
            rows = rows[rows >= 0]
            if not len(rows):
                break
            centroids.append(vecs[rows].mean(axis=0))
        if len(centroids) < 12:
            continue
        for i in range(12):
            for j in range(i + 1, 12):
                d = 1.0 - cos_sim(centroids[i], centroids[j])
                total[i, j] += d
                total[j, i] += d
        used += 1
    if not used:
        return np.full((12, 12), math.nan)
    values = total / used
    np.fill_diagonal(values, 0.0)
    return values


def check_keys(text: str, pieces: list[Piece], forms: list[str], vecs: np.ndarray) -> list[str]:
    cells, errors = _read_matrix(text, "keys.csv", degrees=False)
    if not cells:
        return errors
    return errors + _compare_matrix(cells, key_matrix(pieces, forms, vecs), "keys.csv", True)


def analogy_matrix(forms: list[str], vecs: np.ndarray) -> np.ndarray:
    """Angles between the I->V difference vectors of every pair of major keys."""
    index = {f: i for i, f in enumerate(forms)}
    diffs = []
    for key in CIRCLE:
        a = index.get(triad_form(PC[key], (0, 4, 7)))
        b = index.get(triad_form(PC[key] + 7, (0, 4, 7)))
        diffs.append(None if a is None or b is None or a == b else vecs[b] - vecs[a])
    values = np.full((12, 12), math.nan)
    for i in range(12):
        if diffs[i] is None:
            continue
        values[i, i] = 0.0
        for j in range(i + 1, 12):
            if diffs[j] is not None:
                values[i, j] = values[j, i] = math.degrees(math.acos(cos_sim(diffs[i], diffs[j])))
    return values


def check_analogy(text: str, forms: list[str], vecs: np.ndarray) -> list[str]:
    cells, errors = _read_matrix(text, "analogy.csv", degrees=True)
    if not cells:
        return errors
    return errors + _compare_matrix(cells, analogy_matrix(forms, vecs), "analogy.csv", True)


# ---------------------------------------------------------------------------
# the substitution rule, by brute force


def _acceptable_substitutes(qid: int, forms, vecs, top_n: int) -> tuple[set[str], dict[str, float]]:
    """Every substitute the rule allows for token qid, given near-ties; and each candidate's distance."""
    q = vecs[qid]
    ranked = []
    for c, f in enumerate(forms):
        if c == qid or f in ("UNK", "R"):
            continue
        ranked.append((1.0 - cos_sim(q, vecs[c]), f))
    ranked.sort()
    dist = {f: d for d, f in ranked}
    if not ranked:
        return {forms[qid]}, dist
    n = min(top_n, len(ranked))
    edge = ranked[n - 1][0]
    tied = [r for r in ranked if abs(r[0] - edge) <= TIE]
    sure = [r for r in ranked[:n] if abs(r[0] - edge) > TIE]
    n_input = 0 if forms[qid] == "R" else len(forms[qid].split("."))
    winners = set()
    for extra in combinations(tied, n - len(sure)):
        top = sure + list(extra)
        pcs = [[int(p) for p in f.split(".")] for _, f in top]
        counts = Counter(p for c in pcs for p in c)
        total = sum(counts.values())
        scored = [
            (sum(counts[p] / total for p in c) / len(c), d, f, len(c) == n_input)
            for (d, f), c in zip(top, pcs)
        ]
        contenders = [s for s in scored if s[3]] or scored
        best_score = max(s[0] for s in contenders)
        # scores are float sums of weights, so equal scores may differ by an ulp
        # and the distance tie-break between them is then skipped
        winners.update(s[2] for s in contenders if s[0] >= best_score - TIE)
    return winners, dist


def check_diag(text: str, piece: Piece, forms: list[str], vecs: np.ndarray, top_n: int) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["beat", "original", "substitute", "cosine_distance", "top_n"]:
        return [f"diag for {piece.name}: bad header"]
    rows = [r for r in rows[1:] if r]
    if len(rows) != len(piece.forms):
        return [f"diag for {piece.name}: {len(rows)} rows for {len(piece.forms)} beats"]
    index = {f: i for i, f in enumerate(forms)}
    cache: dict[str, tuple[set[str], dict[str, float]]] = {}
    errors = []
    for beat, (row, want) in enumerate(zip(rows, piece.forms)):
        if len(row) != 5 or row[:2] != [str(beat), want] or row[4] != str(top_n):
            errors.append(f"diag for {piece.name}: beat {beat} row {row} does not describe input {want}")
            continue
        if want not in index:
            if row[2] != want or row[3] != "":
                errors.append(f"diag for {piece.name}: out-of-vocabulary beat {beat} was not passed through")
            continue
        if want not in cache:
            cache[want] = _acceptable_substitutes(index[want], forms, vecs, top_n)
        winners, dist = cache[want]
        if row[2] not in winners:
            errors.append(
                f"diag for {piece.name}: beat {beat} substitutes {row[2]} for {want}, "
                f"the rule gives {sorted(winners)}"
            )
        elif row[2] in dist and abs(float(row[3]) - dist[row[2]]) > 1e-9:
            errors.append(f"diag for {piece.name}: beat {beat} distance {row[3]}, recomputed {dist[row[2]]!r}")
    return errors[:MAX_ERRORS]


# ---------------------------------------------------------------------------
# MIDI, re-read with a parser of our own


def _varlen(data: bytes, pos: int) -> tuple[int, int]:
    value = 0
    for _ in range(4):
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise ValueError("varlen longer than 4 bytes")


def midi_beat_forms(data: bytes) -> list[str]:
    """Per-beat pitch-class forms of a format-0/1 SMF (channel 10 ignored)."""
    if data[:4] != b"MThd":
        raise ValueError("not a MIDI file")
    hlen = struct.unpack(">I", data[4:8])[0]
    _, ntrks, ppq = struct.unpack(">HHH", data[8:14])
    pos = 8 + hlen
    notes = []  # (pitch, on, off)
    for _ in range(ntrks):
        clen = struct.unpack(">I", data[pos + 4:pos + 8])[0]
        end = pos + 8 + clen
        is_track = data[pos:pos + 4] == b"MTrk"
        p, tick, status, held = pos + 8, 0, 0, {}
        while is_track and p < end:
            delta, p = _varlen(data, p)
            tick += delta
            if data[p] >= 0x80:
                status = data[p]
                p += 1
            if status == 0xFF:
                kind = data[p]
                length, p = _varlen(data, p + 1)
                p += length
                if kind == 0x2F:
                    break
            elif status in (0xF0, 0xF7):
                length, p = _varlen(data, p)
                p += length
            else:
                n = 1 if (status & 0xF0) in (0xC0, 0xD0) else 2
                d1, d2 = data[p], (data[p + 1] if n == 2 else 0)
                p += n
                kind, chan = status & 0xF0, status & 0x0F
                if chan == 9:
                    continue
                if kind == 0x90 and d2 > 0:
                    held.setdefault((chan, d1), []).append(tick)
                elif kind == 0x80 or kind == 0x90:
                    ons = held.get((chan, d1))
                    if ons:
                        on = ons.pop(0)
                        if tick > on:
                            notes.append((d1, on, tick))
        pos = end
    n_beats = -(-max((off for _, _, off in notes), default=0) // ppq)
    beats = [set() for _ in range(n_beats)]
    for pitch, on, off in notes:
        for b in range(on // ppq, (off - 1) // ppq + 1):
            beats[b].add(pitch % 12)
    return [form_of(b) for b in beats]


def check_generated_midi(data: bytes, diag_text: str, name: str) -> list[str]:
    """The rewritten MIDI re-slices to the diagnostics' substitute at every beat."""
    try:
        got = midi_beat_forms(data)
    except (ValueError, IndexError, struct.error) as exc:
        return [f"{name}: unreadable MIDI ({exc})"]
    rows = [r for r in list(csv.reader(io.StringIO(diag_text)))[1:] if r]
    want = [r[2] for r in rows]
    if len(got) != len(want):
        return [f"{name}: {len(got)} beats, diagnostics list {len(want)}"]
    errors = [
        f"{name}: beat {b} sounds {g}, substitute is {s}"
        + (" (changed beat)" if r[1] != r[2] else "")
        for b, (g, s, r) in enumerate(zip(got, want, rows))
        if g != s
    ]
    return errors[:MAX_ERRORS]


def check_all(workdir: str, w, seed: int) -> dict[str, list[str]]:
    """Every output check on a work directory after a pipeline pass."""
    from workloads import CORPUS_CACHE, EMBEDDING, LOSS_CSV, VOCAB_CACHE, generated_names

    def read(name: str) -> str:
        with open(os.path.join(workdir, name), "r", encoding="ascii") as fh:
            return fh.read()

    pieces = expected_pieces(w, seed)
    forms, counts = expected_vocab(pieces, w.vocab_size)
    results = {
        "corpus": check_corpus(read(CORPUS_CACHE), pieces),
        "vocab": check_vocab(read(VOCAB_CACHE), forms, counts),
        "embedding": check_embedding(read(EMBEDDING), forms, w.dims),
        "loss": check_loss(read(LOSS_CSV), w.loss_every, w.steps),
    }
    try:
        emb_forms, vecs = parse_embedding(read(EMBEDDING))
    except ValueError as exc:
        results["geometry"] = [f"cannot recompute geometry: {exc}"]
        return results
    results["chords"] = check_chords(read("chords.csv"), emb_forms, vecs)
    results["keys"] = check_keys(read("keys.csv"), pieces, emb_forms, vecs)
    results["analogy"] = check_analogy(read("analogy.csv"), emb_forms, vecs)
    by_name = {p.name: p for p in pieces}
    diag_errors, midi_errors = [], []
    for piece in w.generate:
        midi_out, diag = generated_names(piece)
        diag_text = read(diag)
        diag_errors += check_diag(diag_text, by_name[piece], emb_forms, vecs, w.top_n)
        with open(os.path.join(workdir, midi_out), "rb") as fh:
            midi_errors += check_generated_midi(fh.read(), diag_text, midi_out)
    results["diag"] = diag_errors
    results["generated_midi"] = midi_errors
    return results
