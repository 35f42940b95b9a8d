"""Canonical component-solve memoization for completion cascades.

The Fig-7-style workloads solve the *same component shapes* millions of
times: a local read is a singleton on its disk chain, a remote read is a
two-flow shape joining the server's and the reader's resource chains.
On a homogeneous cluster those shapes are structurally identical across
every (server, reader) pair — only the resource *names* differ — yet the
name-keyed caches of :class:`~repro.simulate.components.
ComponentAllocator` can never see that (a 512-node sweep touches ~5000
distinct endpoint pairs, so a name-keyed memo hits ~never).

:class:`SolveMemo` closes the gap by hashing each dirty component of 2
to ``VECTOR_MIN_FLOWS - 1`` flows into a **canonical form** that strips
the names (larger components skip the memo: their shapes never repeated
on the measured workloads, see
:meth:`~repro.simulate.components.ComponentAllocator._solve_kernels`):

* resources are renumbered in first-appearance order over the members'
  paths — the reference allocator's ``users``-dict insertion order;
* the key is the renumbered incidence pattern per member plus the exact
  ``(capacity, penalty)`` float pair per canonical resource and the
  exact per-member rate caps.

Two components with equal canonical keys pose the *same* water-filling
problem up to resource names, and the kernels of :mod:`repro.simulate.
vectorized` are pure functions of that problem — so the cached rate
vector (and iteration count) is **bit-for-bit** the rates a fresh kernel
run would produce.  No quantization, no tolerance: float capacities are
compared exactly, so a near-miss in capacity is simply a different key.
The memo therefore never changes a single emitted event — it only skips
re-deriving floats that are provably already known (pinned by the
differential tests in ``tests/test_sim_fastforward.py`` and the golden
fixtures, which run with the memo on).

Keys depend on the capacity table handed in at lookup time; the
allocator's table is append-only (``register`` rejects duplicates), so a
cached entry can never be invalidated by a capacity change.  The memo is
per-allocator state.

Purity contract: lookups read ``Flow.path``/``rate_cap`` and the
capacity table and mutate only this memo's own dict (registered in
``repro.tools.config.DEFAULT_PURE_MODULES``; enforced by OPS103).  The
per-lookup cost is O(deg) — one pass over the member paths — under the
OPS301 contracts declared in ``repro.tools.config``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Hashable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .flows import Flow

__all__ = ["SolveMemo", "component_key", "pair_key"]

#: Entry cap: one canonical shape is a few hundred bytes, so the default
#: bounds the memo near ten MB.  Heterogeneous sweeps that somehow
#: exceed it drop the coldest guarantee the cheap way — a full clear —
#: rather than paying an LRU chain on every hot-path hit.
DEFAULT_MAX_ENTRIES = 1 << 16


def pair_key(
    fa: "Flow", fb: "Flow", res_caps: dict[str, tuple[float, float]]
) -> Hashable:
    """Canonical key for the ubiquitous two-flow component.

    ``fa``'s path names canonical resources ``0..len(pa)-1`` in order
    (a path never repeats a resource — :class:`Flow` validates that),
    and ``fb``'s path is resolved against it by position scan; both
    match the first-appearance numbering of the general
    :func:`component_key`, so the two key builders may never disagree
    on equal structures.
    """
    pa = fa.path
    pb = fb.path
    caps = [res_caps[r] for r in pa]  # opass: alloc-ok -- |path| <= replication factor
    n = len(pa)
    ids: list[int] = []
    for r in pb:
        try:
            rid = pa.index(r)
        except ValueError:
            rid = n
            n += 1
            caps.append(res_caps[r])
        ids.append(rid)
    return (len(pa), tuple(ids), tuple(caps), fa.rate_cap, fb.rate_cap)  # opass: alloc-ok -- two paths' worth of ids/caps


def component_key(
    members: Sequence["Flow"], res_caps: dict[str, tuple[float, float]]
) -> Hashable:
    """Canonical key for a component of any size (members in active order).

    First-appearance renumbering over the member paths, the exact
    ``(capacity, penalty)`` pair per canonical resource, and the exact
    per-member rate caps — everything the kernels read, nothing else.
    """
    res_idx: dict[str, int] = {}
    caps: list[tuple[float, float]] = []
    sig: list[tuple[tuple[int, ...], float]] = []
    for f in members:
        ids: list[int] = []
        for r in f.path:
            rid = res_idx.get(r)
            if rid is None:
                rid = len(caps)
                res_idx[r] = rid
                caps.append(res_caps[r])
            ids.append(rid)
        rc = f.rate_cap
        sig.append((tuple(ids), math.inf if rc is None else rc))  # opass: alloc-ok -- one member's path
    return (tuple(sig), tuple(caps))  # opass: alloc-ok -- component membership is O(deg) by the allocator contract


class SolveMemo:
    """Canonical-shape cache of solved component rate vectors.

    Values are ``(rates, iterations)`` tuples exactly as the kernels
    returned them: ``rates`` in member (active-list) order, and the
    water-filling iteration count replayed into the perf counters on a
    hit so ``solve_iterations`` keeps measuring the *represented* work
    (``tests/test_work_counter_growth.py`` bounds iterations/event
    across scales; a memo whose hit rate varies by scale must not bend
    that curve).  Hit accounting lives in the allocator
    (``SimPerf.memo_hits``), keeping :meth:`lookup` a pure read.  The
    method names are deliberately not ``get``/``put``: the OPS103
    interprocedural pass resolves untyped method calls by name, and a
    mutating ``get`` would shadow every ``dict.get`` call site in the
    project.
    """

    __slots__ = ("_cache", "max_entries")

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        self._cache: dict[Hashable, tuple[list[float], int]] = {}
        self.max_entries = max_entries

    def __len__(self) -> int:
        return len(self._cache)

    def lookup(self, key: Hashable) -> tuple[list[float], int] | None:
        """The cached ``(rates, iterations)`` for ``key``, if known."""
        return self._cache.get(key)

    def store(self, key: Hashable, rates: list[float], iterations: int) -> None:
        """Cache a freshly solved shape (bounded; clears when full)."""
        cache = self._cache
        if len(cache) >= self.max_entries:
            cache.clear()
        cache[key] = (rates, iterations)

    def clear(self) -> None:
        self._cache.clear()
