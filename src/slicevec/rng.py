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
256 lanes 64 steps apart and then step all of them at once on uint64: every
refill is one or more whole blocks of 16,384 values.
"""

from __future__ import annotations

from functools import cache

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
STAR_MULT = 0x2545F4914F6CDD1D
_INV53 = 2.0 ** -53

MAX_LANES = 256
MAX_SPACING = 64  # steps between lanes
_BLOCK = MAX_LANES * MAX_SPACING  # values per refill block
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
    drops the buffer, and the next block resumes from state. A refill appends
    whole 16,384-value blocks, so even a fresh stream's first draw builds one.
    """

    __slots__ = ("state", "_raw", "_pos")

    def __init__(self, seed: int):
        self.state = seed_to_state(seed)
        self._raw = _EMPTY  # buffered states; outputs are these times STAR_MULT
        self._pos = 0  # states consumed from _raw

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
        parts = [self._raw[self._pos :]]
        last = int(parts[0][-1]) if have else self.state
        while have < n:
            parts.append(_lane_block(last))
            last = int(parts[-1][-1])
            have += _BLOCK
        self._raw, self._pos = np.concatenate(parts), 0

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
    """Columns of the matrices that advance the state 64 * 2**k steps, k = 0..7:
    the jumps that double a block's lanes from 1 to MAX_LANES.

    Built on first use, never at import.
    """
    table = [np.array([_step(1 << b) for b in range(64)], dtype=np.uint64)]
    while len(table) < 14:
        table.append(_jump(table[-1], table[-1]))  # square: J^2 e_b = J (J e_b)
    return tuple(table[6:])  # J^MAX_SPACING .. J^(_BLOCK / 2)


def _lane_block(start: int) -> np.ndarray:
    """The _BLOCK states that follow start, in stream order.

    Lane k starts k * MAX_SPACING steps after start; row t of the work array
    holds every lane after t + 1 steps. Each step costs six numpy calls on
    all MAX_LANES lanes at once.
    """
    x = np.array([start], dtype=np.uint64)
    for cols in _jump_table():
        x = np.concatenate([x, _jump(cols, x)])
    block = np.empty((MAX_SPACING, MAX_LANES), dtype=np.uint64)
    tmp = np.empty(MAX_LANES, dtype=np.uint64)
    for row in block:
        np.right_shift(x, _U12, row)
        np.bitwise_xor(row, x, row)
        np.left_shift(row, _U25, tmp)
        np.bitwise_xor(row, tmp, row)
        np.right_shift(row, _U27, tmp)
        np.bitwise_xor(row, tmp, row)
        x = row
    return block.T.reshape(-1)


def to_floats(u64: np.ndarray) -> np.ndarray:
    """53-bit floats in [0, 1) from u64 outputs, as Rng.next_float makes them."""
    out = (u64 >> _U11).astype(np.float64)
    out *= _INV53
    return out
