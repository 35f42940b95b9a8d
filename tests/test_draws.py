"""Differential tests: the raw-word replays equal the numpy calls they stand for.

``repro.draws`` replays numpy's internals, not its API, so these tests pin
the replays against the installed numpy: the same values, and for
``choice_rows`` the same ``bit_generator.state`` dict afterwards.
"""

import numpy as np
import pytest

from repro.draws import bounded_draws, choice_rows

SEEDS = range(24)
#: (n, r): r = 1, r = n, n = 1, the Fig 7/9 cluster sizes, a large pick.
SHAPES = [(12, 3), (12, 1), (3, 3), (1, 1), (2, 2), (256, 3), (512, 3), (100, 17), (5, 0)]


def per_row(rng, n, r, rows):
    return [rng.choice(n, r, replace=False).tolist() for _ in range(rows)]


def twins(seed, warmup):
    """Two equal generators after ``warmup`` ``integers`` draws: an odd
    count leaves a buffered 32-bit half, an even one does not."""
    pair = [np.random.default_rng(seed) for _ in range(2)]
    for rng in pair:
        rng.integers(1000, size=warmup)
    return pair


class TestChoiceRows:
    @pytest.mark.parametrize("warmup", [0, 1, 2, 3])
    @pytest.mark.parametrize("n, r", SHAPES)
    def test_rows_and_state_equal_per_row_choice(self, n, r, warmup):
        for seed in SEEDS:
            want_rng, got_rng = twins(seed, warmup)
            assert choice_rows(got_rng, n, r, 9) == per_row(want_rng, n, r, 9)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("rows", [1, 409, 410, 1000])
    def test_many_rows_cross_refill_blocks(self, rows):
        # 1,000 rows of (512, 3) take 5,000 32-bit outputs: three refills.
        for warmup in (0, 1):
            want_rng, got_rng = twins(7, warmup)
            assert choice_rows(got_rng, 512, 3, rows) == per_row(want_rng, 512, 3, rows)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_zero_rows_leave_the_generator_alone(self):
        want_rng, got_rng = twins(3, 1)
        assert choice_rows(got_rng, 12, 3, 0) == []
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("n, r", [(12, 3), (512, 3)])
    def test_rejection_redraw(self, n, r):
        """A buffered half of 0 is rejected by the first Floyd draw (its
        bound ``n − r + 1`` is no power of two), so the replay redraws and
        every later draw shifts by one output."""
        for seed in range(4):
            want_rng, got_rng = twins(seed, 1)
            for rng in (want_rng, got_rng):
                state = rng.bit_generator.state
                state["uinteger"] = 0
                rng.bit_generator.state = state
            assert choice_rows(got_rng, n, r, 50) == per_row(want_rng, n, r, 50)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_shapes_outside_the_replay_keep_numpy(self):
        # r > n // 50 above 10,000 values: numpy shuffles a permutation's
        # tail; above 2**32 values its bounded draws take 64-bit outputs.
        for n, r in [(20000, 500), (20000, 400), (1 << 33, 2)]:
            want_rng, got_rng = twins(11, 1)
            assert choice_rows(got_rng, n, r, 2) == per_row(want_rng, n, r, 2)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_other_bit_generators_keep_numpy(self):
        want_rng, got_rng = (np.random.Generator(np.random.MT19937(5)) for _ in range(2))
        assert choice_rows(got_rng, 12, 3, 40) == per_row(want_rng, 12, 3, 40)
        assert got_rng.bit_generator.state["state"]["pos"] == (
            want_rng.bit_generator.state["state"]["pos"]
        )
        assert got_rng.integers(1 << 30) == want_rng.integers(1 << 30)

    @pytest.mark.parametrize("n, r", [(3, 4), (3, -1)])
    def test_impossible_shapes_raise(self, n, r):
        with pytest.raises(ValueError, match="distinct"):
            choice_rows(np.random.default_rng(0), n, r, 1)


class TestBoundedDraws:
    def test_rejection_on_a_crafted_stream(self):
        # k = 3: outputs whose product's low 32 bits fall below
        # (2**32 - 3) % 3 == 1 (here 0) are redrawn.
        draw = bounded_draws(iter([0, 0, 2**31, 5]))
        assert draw(3) == (2**31 * 3) >> 32
        assert draw(3) == 0
        # k = 4 divides 2**32, so no output is ever rejected.
        draw = bounded_draws(iter([0, 7]))
        assert draw(4) == 0
        assert draw(4) == 0
