"""PRNG reference vectors, distribution sanity, and block draws matching the one-value walk."""

from __future__ import annotations

import random

import numpy as np
import pytest
from rng_oracle import ScalarRng

from slicevec.rng import (
    GOLDEN,
    MASK64,
    MAX_LANES,
    MAX_SPACING,
    Rng,
    seed_to_state,
    splitmix64,
)

# Published splitmix64 stream for seed 1234567 (state += golden per draw).
SPLITMIX_1234567 = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]

# xorshift64* (shifts 12/25/27, multiplier 0x2545F4914F6CDD1D) first outputs.
XORSHIFT_FROM_STATE_1 = [
    5180492295206395165,
    12380297144915551517,
    13389498078930870103,
    5599127315341312413,
    1036278371763004928,
]
XORSHIFT_FROM_STATE_DEADBEEF = [
    5049962699329485530,
    9057321420647756454,
    5475795133938748754,
    13361108695380653049,
    2467752300247376811,
]


def test_splitmix64_matches_reference_stream():
    state = 1234567
    outs = []
    for _ in range(len(SPLITMIX_1234567)):
        outs.append(splitmix64(state))
        state = (state + GOLDEN) & MASK64
    assert outs == SPLITMIX_1234567


def test_xorshift_star_matches_reference_streams():
    rng = Rng.from_state(1)
    assert [rng.next_u64() for _ in range(5)] == XORSHIFT_FROM_STATE_1
    rng = Rng.from_state(0xDEADBEEF)
    assert [rng.next_u64() for _ in range(5)] == XORSHIFT_FROM_STATE_DEADBEEF


def test_seeding_goes_through_splitmix():
    assert Rng(1234567).state == SPLITMIX_1234567[0]
    assert seed_to_state(42) == splitmix64(42)
    # negative seeds are masked to 64 bits first
    assert Rng(-1).state == splitmix64((-1) & MASK64)


def test_zero_state_is_remapped():
    # xorshift64* would emit zeros forever from state 0
    assert Rng.from_state(0).state == GOLDEN
    rng = Rng.from_state(0)
    assert rng.next_u64() != 0


def test_float53_construction():
    floats = Rng.from_state(1).floats(len(XORSHIFT_FROM_STATE_1)).tolist()
    assert floats == [(bits >> 11) * 2.0**-53 for bits in XORSHIFT_FROM_STATE_1]


def test_float_range():
    f = Rng(77).floats(5000)
    assert ((0.0 <= f) & (f < 1.0)).all()


def test_below_bounds_and_coverage():
    rng = Rng(9)
    for n in (2, 3, 5, 8):
        assert set(rng.below_each(np.full(64 * n, n)).tolist()) == set(range(n))


def test_below_one_consumes_nothing():
    rng = Rng(4)
    before = rng.state
    assert rng.below_each(np.array([1])).tolist() == [0]
    assert rng.state == before


def test_below_rejects_nonpositive():
    rng = Rng(4)
    # an int64 -3 must not wrap to 2**64 - 3
    for bounds in ([0], [-3], np.array([-3]), np.array([3, 0], dtype=np.uint64)):
        with pytest.raises(ValueError):
            rng.below_each(bounds)


def test_below_roughly_uniform():
    n = 8
    draws = 16000
    buckets = np.bincount(Rng(123).below_each(np.full(draws, n)).astype(np.int64), minlength=n)
    expected = draws / n
    for count in buckets:
        assert abs(count - expected) < 0.2 * expected


def test_streams_differ_between_seeds():
    a = [Rng(1).next_u64() for _ in range(1)]
    b = [Rng(2).next_u64() for _ in range(1)]
    assert a != b


BLOCK = MAX_LANES * MAX_SPACING


def _take(block, ref, kind, n, rnd):
    """n values of one kind from block's block methods and from the walk ref."""
    if kind == "u64":
        return block.u64(n).tolist(), [ref.next_u64() for _ in range(n)]
    if kind == "float":
        return block.floats(n).tolist(), [ref.next_float() for _ in range(n)]
    bounds = [rnd.choice((1, 1, 2, 3, 7, 12, 100, 2**40, 2**64 - 1)) for _ in range(n)]
    return block.below_each(np.array(bounds, dtype=np.uint64)).tolist(), [ref.below(b) for b in bounds]


def test_block_stream_matches_rng_at_random_states_and_offsets():
    rnd = random.Random(41)
    states = [0, 1, GOLDEN, MASK64] + [rnd.getrandbits(64) for _ in range(8)]
    for state in states:
        ref = ScalarRng.from_state(state)
        block = Rng.from_state(state)
        for _ in range(12):
            kind = rnd.choice(("u64", "float", "below"))
            n = rnd.choice((0, 1, 2, 63, 64, 65, 500, 1023, 1025, 5000))
            got, expected = _take(block, ref, kind, n, rnd)
            assert got == expected, (state, kind, n)
            assert block.state == ref.state


def test_block_stream_from_zero_state_starts_at_golden():
    block = Rng.from_state(0)
    assert block.state == GOLDEN
    ref = ScalarRng.from_state(GOLDEN)
    assert block.u64(100).tolist() == [ref.next_u64() for _ in range(100)]
    assert block.state == ref.state


def test_block_stream_matches_rng_across_lane_and_block_refills():
    # sizes that end exactly on, and one past, a lane, a full block and the
    # point where consumption crosses into the next block
    ref = ScalarRng(8)
    block = Rng(8)
    for n in (MAX_SPACING, 1, BLOCK - 1, 2, BLOCK, 3 * MAX_SPACING + 1, BLOCK + 7, 1):
        assert block.u64(n).tolist() == [ref.next_u64() for _ in range(n)], n
        assert block.state == ref.state


def test_block_stream_peek_consumes_nothing():
    ref = ScalarRng(12)
    block = Rng(12)
    ahead = block.peek(3000).tolist()
    assert block.state == Rng(12).state
    assert block.u64(10).tolist() == ahead[:10]
    block.skip(2000)
    assert block.u64(990).tolist() == ahead[2010:]
    for _ in range(3000):
        ref.next_u64()
    assert block.state == ref.state


def test_block_stream_follows_direct_steps_of_its_rng():
    rng = Rng(13)
    first = rng.u64(5).tolist()
    rng.peek(2000)  # buffered ahead of the state
    direct = rng.next_u64()  # a one-value read takes the first buffered value
    ref = ScalarRng(13)
    assert first == [ref.next_u64() for _ in range(5)]
    assert direct == ref.next_u64()
    assert rng.u64(100).tolist() == [ref.next_u64() for _ in range(100)]
    assert rng.state == ref.state


def test_block_and_scalar_draws_mixed_on_one_rng_match_scalar_draws():
    rnd = random.Random(47)
    for seed in range(6):
        mixed, ref = Rng(seed), ScalarRng(seed)
        for _ in range(60):
            kind = rnd.choice(("u64", "float", "below", "peek", "skip", "next_u64",
                               "one_float", "one_below"))
            n = rnd.choice((0, 1, 2, 5, 63, 64, 65, 700, BLOCK + 3))
            if kind in ("u64", "float", "below"):
                got, expected = _take(mixed, ref, kind, n, rnd)
            elif kind == "peek":
                probe = ScalarRng.from_state(ref.state)
                got, expected = mixed.peek(n).tolist(), [probe.next_u64() for _ in range(n)]
            elif kind == "skip":
                mixed.skip(n)
                for _ in range(n):
                    ref.next_u64()
                got = expected = n
            elif kind == "next_u64":
                got, expected = mixed.next_u64(), ref.next_u64()
            elif kind == "one_float":
                got, expected = mixed.floats(1)[0], ref.next_float()
            else:
                bound = rnd.choice((1, 2, 3, 100, 2**64 - 1))
                got, expected = mixed.below_each([bound])[0], ref.below(bound)
            assert got == expected, (seed, kind, n)
            assert mixed.state == ref.state, (seed, kind, n)


def _scalar(state, n):
    """n outputs of the walk from state, and the state after them."""
    ref = ScalarRng.from_state(state)
    return [ref.next_u64() for _ in range(n)], ref.state


def test_one_request_longer_than_two_blocks_matches_scalar_draws():
    for lead in (0, 7):  # from an empty buffer, and behind a buffered tail
        rng = Rng(21)
        rng.skip(lead)
        start = rng.state
        expected, after = _scalar(start, 2 * BLOCK + 5)
        assert rng.u64(2 * BLOCK + 5).tolist() == expected, lead
        assert rng.state == after


def test_a_peek_grown_past_a_block_edge_keeps_the_buffered_values():
    # as _kernels._draw_negatives_py re-peeks further after a rejection
    rng = Rng(22)
    rng.skip(BLOCK - 10)
    start = rng.state
    expected, after = _scalar(start, 40)
    assert rng.peek(5).tolist() == expected[:5]  # inside the first block
    assert rng.peek(40).tolist() == expected  # 10 buffered, 30 from a new block
    assert rng.state == start
    rng.skip(40)
    assert rng.state == after
    assert rng.u64(3).tolist() == _scalar(after, 3)[0]


def test_a_scalar_draw_at_a_block_edge_matches_scalar_draws():
    rng = Rng(23)
    rng.u64(BLOCK)  # the buffer is used up exactly at the edge
    expected, after = _scalar(rng.state, 1 + BLOCK + 1)
    assert rng.next_u64() == expected[0]
    assert rng.u64(BLOCK).tolist() == expected[1:-1]  # drawn from the next state on
    assert rng.next_u64() == expected[-1]
    assert rng.state == after
