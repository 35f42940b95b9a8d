"""Bit-exact replays of seeded numpy draws from raw generator words.

A numpy call costs microseconds whatever it draws, so code that needs one
small bounded draw at a time (Algorithm 1's next proposer, one replica set
per chunk) replays what numpy would return from a block of raw 64-bit
words instead.  The replays follow numpy's own rules, so seeded results
stay what the per-call forms give:

* a 64-bit bit generator's 32-bit outputs are each word's low half, then
  its high half (:func:`uint32_words`);
* a bounded draw below ``k`` is Lemire's multiply-shift rejection over
  those outputs (:func:`bounded_draws`);
* ``Generator.choice(n, r, replace=False)`` is Floyd's algorithm over
  such draws, then a Fisher–Yates shuffle of the picks
  (:func:`choice_rows`).

These are numpy's internals (checked against numpy 2.4), not its API;
the differential tests in ``tests/test_draws.py`` pin them against the
installed numpy.  The module imports only numpy, so every layer may use
it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from itertools import chain, repeat
from operator import length_hint

import numpy as np

_MASK32 = 0xFFFFFFFF
#: Raw 64-bit words pulled from the bit generator per refill (two 32-bit
#: outputs each).
RAW_BLOCK = 1024
#: ``Generator.choice(n, r, replace=False)`` runs Floyd's algorithm unless
#: ``n > _FLOYD_MAX_POP and r > n // _FLOYD_CUTOFF``; those shapes shuffle
#: the tail of a full permutation instead.
_FLOYD_MAX_POP = 10000
_FLOYD_CUTOFF = 50


def _halves(words: np.ndarray) -> list[int]:
    """The 32-bit outputs of raw 64-bit ``words``, in the order numpy draws them."""
    return np.stack((words & _MASK32, words >> 32), axis=-1).ravel().tolist()


def uint32_words(bit_generator: np.random.BitGenerator, block: int = RAW_BLOCK) -> Iterator[int]:
    """A 64-bit bit generator's 32-bit outputs: each word's low, then high half.

    Words are pulled ``block`` at a time, so the bit generator runs ahead
    of the outputs taken; only a generator that nothing else draws from
    may be passed.
    """
    return chain.from_iterable(
        _halves(bit_generator.random_raw(block)) for _ in repeat(None)
    )


def bounded_draws(u32: Iterator[int]) -> Callable[[int], int]:
    """Return ``draw(k)``, numpy's bounded draw below ``k`` for ``1 <= k <= 2**32``.

    numpy draws an integer below ``k <= 2**32`` by Lemire's multiply-shift
    rejection over 32-bit outputs: ``k == 1`` consumes nothing; otherwise
    ``m = u32 * k`` is redrawn while its low 32 bits fall below
    ``(2**32 - k) % k``, and the draw is ``m >> 32``.  Over the outputs of
    :func:`uint32_words` this equals ``int(rng.integers(k))``.
    """
    next_u32 = u32.__next__

    def draw(k: int) -> int:
        if k == 1:
            return 0
        m = next_u32() * k
        if m & _MASK32 < k:
            threshold = (_MASK32 - (k - 1)) % k
            while m & _MASK32 < threshold:
                m = next_u32() * k
        return m >> 32

    return draw


def choice_rows(rng: np.random.Generator, n: int, r: int, rows: int) -> list[list[int]]:
    """Equal to ``[rng.choice(n, r, replace=False).tolist() for _ in range(rows)]``.

    The rows are the same, in the same order, and ``rng.bit_generator.state``
    is left dict-equal to what the per-row calls leave, the buffered 32-bit
    half included.  For a ``PCG64`` generator (the one ``default_rng``
    builds) and a shape numpy samples with Floyd's algorithm, the draws are
    replayed from raw words: per row, a draw in ``[0, j]`` for ``j = n − r
    … n − 1`` (taking ``j`` when the value is already picked), then a draw
    in ``[0, i]`` for ``i = r − 1 … 1``, swapping picks ``i`` and the
    draw.  The replay reads words ahead of the draws; it then restores the
    snapshot taken on entry and advances the bit generator by the words
    the draws used.  Other generators and shapes make the per-row calls.
    """
    if not 0 <= r <= n:
        raise ValueError(f"cannot choose {r} distinct values below {n}")
    bg = rng.bit_generator
    if (
        type(bg) is not np.random.PCG64
        or (n > _FLOYD_MAX_POP and r > n // _FLOYD_CUTOFF)
        or n > 1 << 32  # numpy draws in [0, j] for j >= 2**32 from 64-bit outputs
    ):
        return [rng.choice(n, r, replace=False).tolist() for _ in range(rows)]
    floyd = range(n - r + 1, n + 1)  # draw below k = j + 1
    swaps = range(r, 1, -1)  # draw below k = i + 1
    per_row = sum(k > 1 for k in floyd) + len(swaps)
    if not rows or not per_row:
        return [list(range(r)) for _ in range(rows)]

    snapshot = bg.state
    buffered = [snapshot["uinteger"]] if snapshot["has_uint32"] else []
    block = min(RAW_BLOCK, (rows * per_row) // 2 + 1)
    blocks = 0
    last: tuple[list[int], Iterator[int]] = ([], iter(()))

    def refills() -> Iterator[Iterator[int]]:
        nonlocal blocks, last
        while True:
            halves = _halves(bg.random_raw(block))
            blocks += 1
            last = (halves, iter(halves))
            yield last[1]

    draw = bounded_draws(chain(buffered, chain.from_iterable(refills())))
    out: list[list[int]] = []
    for _ in range(rows):
        row: list[int] = []
        for k in floyd:
            v = draw(k)
            row.append(k - 1 if v in row else v)
        for k in swaps:
            s = draw(k)
            row[k - 1], row[s] = row[s], row[k - 1]
        out.append(row)

    if blocks:
        halves, rest = last
        used = len(halves) - length_hint(rest)  # >= 1: a block is pulled when needed
        bg.state = snapshot
        bg.advance((blocks - 1) * block + (used + 1) // 2)
        landed = bg.state
        # The last word's high half is buffered when only its low half was
        # used; otherwise numpy leaves it behind as the stale ``uinteger``.
        landed["has_uint32"] = used & 1
        landed["uinteger"] = halves[used] if used & 1 else halves[used - 1]
        bg.state = landed
    else:  # the draws used only the buffered half
        snapshot["has_uint32"] = 0
        bg.state = snapshot
    return out
