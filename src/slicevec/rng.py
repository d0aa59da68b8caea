"""Deterministic 64-bit PRNG used by training.

xorshift64* seeded through one round of splitmix64. ``Rng`` draws its stream
one value per call (``next_u64``, ``next_float``, ``below``: plain Python
ints masked to 64 bits, the reference) or a block at a time (``peek``,
``skip``, ``u64``, ``floats``, ``below_each``: numpy, bit for bit the same
values), so a batch's contents and negative samples are those of the
one-value walk.

xorshift64* updates its state by a linear map over GF(2) (Marsaglia 2003,
"Xorshift RNGs"; Vigna 2016, arXiv:1402.6246), so the state k steps ahead is
a 64x64 bit matrix applied to the state. The block methods use that to start
up to 256 lanes a fixed spacing apart and then step all of them at once on
uint64.
"""

from __future__ import annotations

from functools import cache

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
STAR_MULT = 0x2545F4914F6CDD1D
_INV53 = 2.0 ** -53

MAX_LANES = 256
MAX_SPACING = 64  # steps between lanes; a block holds at most 16k values
_SMALL = 64  # fills below this many values are stepped in Python
_U12, _U25, _U27, _U11 = (np.uint64(k) for k in (12, 25, 27, 11))
_STAR = np.uint64(STAR_MULT)
_BITS = np.arange(64, dtype=np.uint64)
_EMPTY = np.empty(0, dtype=np.uint64)


def splitmix64(x: int) -> int:
    """One splitmix64 output for input x (used for seeding, not streaming)."""
    z = (x + GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def seed_to_state(seed: int) -> int:
    """Map an arbitrary integer seed to a nonzero xorshift64* state."""
    state = splitmix64(seed & MASK64)
    return state if state != 0 else GOLDEN


def _step(x: int) -> int:
    """The xorshift64* state after x."""
    x ^= x >> 12
    x = (x ^ (x << 25)) & MASK64
    return x ^ (x >> 27)


class Rng:
    """xorshift64* stream. Cheap, reproducible, not cryptographic.

    state is always the state after the last value consumed (read it; start
    a stream elsewhere with from_state). The block methods buffer values
    ahead of it, to look at (peek) before consuming (skip); a scalar draw
    drops the buffer, and the next block resumes from state. Each refill
    doubles the last, up to MAX_LANES * MAX_SPACING values, so short uses
    stay cheap and long ones amortize the lane start-up.
    """

    __slots__ = ("state", "_raw", "_pos", "_fill")

    def __init__(self, seed: int):
        self.state = seed_to_state(seed)
        self._raw = _EMPTY  # buffered states; outputs are these times STAR_MULT
        self._pos = 0  # states consumed from _raw
        self._fill = 0  # values made by the last refill

    @classmethod
    def from_state(cls, state: int) -> "Rng":
        rng = cls(0)
        rng.state = state & MASK64 or GOLDEN
        return rng

    def next_u64(self) -> int:
        self._raw, self._pos = _EMPTY, 0
        self.state = x = _step(self.state)
        return (x * STAR_MULT) & MASK64

    def next_float(self) -> float:
        """Uniform float64 in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _INV53

    def below(self, n: int) -> int:
        """Uniform integer in [0, n). Consumes no output when n == 1."""
        if n <= 1:
            if n == 1:
                return 0
            raise ValueError(f"below() needs n >= 1, got {n}")
        return self.next_u64() % n

    def _ensure(self, n: int) -> None:
        have = len(self._raw) - self._pos
        if have >= n:
            return
        tail = self._raw[self._pos :]
        last = int(tail[-1]) if have else self.state
        self._fill = max(n - have, min(MAX_LANES * MAX_SPACING, 2 * self._fill))
        fresh = _states_after(last, self._fill)
        self._raw = np.concatenate([tail, fresh]) if have else fresh
        self._pos = 0

    def peek(self, n: int) -> np.ndarray:
        """The next n u64 outputs, not consumed."""
        self._ensure(n)
        return self._raw[self._pos : self._pos + n] * _STAR

    def skip(self, n: int) -> None:
        """Consume the next n values."""
        if n <= 0:
            return
        self._ensure(n)
        self._pos += n
        self.state = int(self._raw[self._pos - 1])

    def u64(self, n: int) -> np.ndarray:
        """The next n next_u64 outputs, consumed."""
        out = self.peek(n)
        self.skip(n)
        return out

    def floats(self, n: int) -> np.ndarray:
        """The next n next_float outputs, consumed."""
        return to_floats(self.u64(n))

    def below_each(self, bounds: np.ndarray) -> np.ndarray:
        """below(n) for each n in bounds, in order; n == 1 consumes nothing."""
        bounds = np.asarray(bounds, dtype=np.uint64)
        if (bounds < 1).any():
            raise ValueError("below() needs n >= 1")
        drawn = bounds > 1
        out = np.zeros(len(bounds), dtype=np.uint64)
        out[drawn] = self.u64(int(np.count_nonzero(drawn))) % bounds[drawn]
        return out


def _jump(cols: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Apply the bit matrix with columns cols to every state (GF(2) product)."""
    bits = (states[:, None] >> _BITS) & np.uint64(1)
    return np.bitwise_xor.reduce(bits * cols, axis=1)


@cache
def _jump_table() -> tuple[np.ndarray, ...]:
    """Columns of the matrices that advance the state 2**k steps, k = 0..15.

    Built on first use, never at import.
    """
    table = [np.array([_step(1 << b) for b in range(64)], dtype=np.uint64)]
    while len(table) < 16:
        table.append(_jump(table[-1], table[-1]))  # square: J^2 e_b = J (J e_b)
    return tuple(table)


def _lane_block(start: int, lanes: int, spacing: int) -> np.ndarray:
    """The lanes * spacing states that follow start, in stream order.

    lanes and spacing are powers of two. Lane k starts k * spacing steps
    after start; row t of the work array holds every lane after t + 1 steps.
    Each step costs six numpy calls whatever the lane count, so wide blocks
    are cheap per value.
    """
    table = _jump_table()
    k = spacing.bit_length() - 1
    x = np.array([start], dtype=np.uint64)
    while len(x) < lanes:
        x = np.concatenate([x, _jump(table[k], x)])
        k += 1
    block = np.empty((spacing, lanes), dtype=np.uint64)
    tmp = np.empty(lanes, dtype=np.uint64)
    for row in block:
        np.right_shift(x, _U12, row)
        np.bitwise_xor(row, x, row)
        np.left_shift(row, _U25, tmp)
        np.bitwise_xor(row, tmp, row)
        np.right_shift(row, _U27, tmp)
        np.bitwise_xor(row, tmp, row)
        x = row
    return block.T.reshape(-1)


def _states_after(start: int, n: int) -> np.ndarray:
    """At least n states that follow start, in stream order."""
    if n < _SMALL:
        out = []
        x = start
        for _ in range(n):
            x = _step(x)
            out.append(x)
        return np.array(out, dtype=np.uint64)
    parts = []
    while n > 0:
        lanes = min(MAX_LANES, 1 << ((n.bit_length() + 1) // 2 + 2))  # about 4 sqrt(n)
        spacing = min(MAX_SPACING, 1 << ((n - 1) // lanes).bit_length())
        parts.append(_lane_block(start, lanes, spacing))
        start = int(parts[-1][-1])
        n -= len(parts[-1])
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def to_floats(u64: np.ndarray) -> np.ndarray:
    """53-bit floats in [0, 1) from u64 outputs, as Rng.next_float makes them."""
    out = (u64 >> _U11).astype(np.float64)
    out *= _INV53
    return out
