"""The one-value xorshift64* walk that every block read of slicevec.rng.Rng must match.

ScalarRng keeps a plain Python int state and steps ``rng._step`` once per
value, with no buffer. next_float and below are the one-value forms of
Rng.floats and Rng.below_each.
"""

from __future__ import annotations

from slicevec.rng import GOLDEN, MASK64, STAR_MULT, _step, seed_to_state


class ScalarRng:
    """A stream drawn one value per call; state is the state after the last value."""

    def __init__(self, seed: int):
        self.state = seed_to_state(seed)

    @classmethod
    def from_state(cls, state: int) -> "ScalarRng":
        walk = cls(0)
        walk.state = state & MASK64 or GOLDEN
        return walk

    def next_u64(self) -> int:
        self.state = x = _step(self.state)
        return (x * STAR_MULT) & MASK64

    def next_float(self) -> float:
        """Uniform float64 in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) for n >= 1. Consumes no output when n == 1."""
        return 0 if n == 1 else self.next_u64() % n
