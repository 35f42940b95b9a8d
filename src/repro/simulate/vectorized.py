"""Flat-array water-filling kernels for component-sliced rate solves.

:func:`~repro.simulate.flows.allocate_rates` is the semantic reference:
progressive filling over a ``Flow``/``Resource`` object graph, one dict
lookup and one attribute walk per touched resource per iteration.  The
kernels here run the *same* decision sequence over flat data, in three
tiers by component size (the allocator's dispatch):

* :func:`solve_single` — closed form for a singleton component;
* :func:`solve_small` — scalar filling from two flows up to below
  :data:`VECTOR_MIN_FLOWS`, lowered inline against a name-keyed
  capacity table;
* :func:`solve_large` — the numpy kernel at and above the cutoff.  It
  only fills: the allocator keeps each large component lowered (resource
  rows with capacity, penalty and member-count arrays, per-row member
  slots, per-member rows, capped members by cap) as flows come and go.
  The water-level search, drain and saturation test run as whole-array
  operations; freezing runs in Python over the per-row member lists,
  because an iteration usually saturates only one to three resources.

Identity is the contract, not an aspiration.  Every float operation is
the one the reference performs: effective capacity uses the same
``capacity / (1 + penalty·(k-1))`` expression, the water level is
accumulated in the same order (``level += delta`` with ``delta`` the
minimum over the same candidate set — float min is order-independent),
saturation uses the same ``free ≤ 1e-9·capacity`` guard, caps freeze
inside the same ``level ≥ cap − 1e-12`` window, and the float-underflow
fallback freezes the same survivors at the same level.  Freeze *order*
within an iteration only permutes commutative updates (every frozen flow
gets the same level; per-resource unfrozen counts are decremented once
per frozen flow), and resource order never enters a decision, so any
row numbering gives the rates and iteration counts of the reference's
first-appearance numbering.  Member order, likewise, only permutes the
freezes within an iteration and the order among equal caps, whose flows
freeze together at the same value.  All of it bit-for-bit, pinned by the
differential fuzz suite in ``tests/test_properties_vectorized.py``
(which also runs the numpy kernel with shuffled and inert rows and
shuffled members at every size).

Purity contract: kernels read ``Flow.path``/``rate_cap`` and the
capacity tables and write only locals (registered in
``repro.tools.config.DEFAULT_PURE_MODULES``; enforced by OPS103).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .flows import Flow

__all__ = [
    "VECTOR_MIN_FLOWS",
    "res_entry",
    "solve_large",
    "solve_single",
    "solve_small",
]

#: Components with at least this many flows run the numpy kernel; below
#: it the flat scalar kernel wins (array construction costs more than it
#: saves on the measured workloads, where the median component is one
#: flow and p90 ≈ 3).
VECTOR_MIN_FLOWS = 32


def res_entry(resource: "object") -> tuple[float, float]:
    """``(capacity, concurrency_penalty)`` floats for a resource entry.

    Plain float capacities behave like penalty-free resources — the same
    convention :func:`~repro.simulate.flows.effective_capacity` applies.
    """
    if isinstance(resource, (int, float)):
        return (float(resource), 0.0)
    return (resource.capacity, resource.concurrency_penalty)


def solve_single(
    flow: "Flow", res_caps: dict[str, tuple[float, float]]
) -> float:
    """Closed form for a singleton component.

    With one flow every resource has concurrency 1, so the first (and
    only) water-filling iteration freezes the flow at ``min(capacity
    along path, rate_cap)`` — in every reference branch (saturation,
    cap freeze, and the cap==capacity tie) the frozen rate is exactly
    this minimum, as plain float ``min`` over the same values.
    """
    rate = math.inf
    for r in flow.path:
        cap = res_caps[r][0]
        if cap < rate:
            rate = cap
    rc = flow.rate_cap
    if rc is not None and rc < rate:
        rate = rc
    return rate


def solve_small(
    members: Sequence["Flow"], res_caps: dict[str, tuple[float, float]]
) -> tuple[list[float], int]:
    """Fused lowering + scalar filling for small multi-flow components.

    The measured workloads solve millions of 2–3 flow components, where
    building index arrays costs more than the filling itself.  This
    kernel lowers inline and detects freezes by scanning the few member
    flows against the saturated-resource list — the same freezes the
    reference performs, in a different (commutative) order within the
    iteration.
    """
    nflows = len(members)
    res_idx: dict[str, int] = {}
    raw: list[tuple[float, float]] = []
    kcnt: list[int] = []
    fres: list[list[int]] = []
    caps: list[float] = []
    for f in members:
        ids = []
        for r in f.path:
            rid = res_idx.get(r)
            if rid is None:
                rid = len(raw)
                res_idx[r] = rid
                raw.append(res_caps[r])
                kcnt.append(0)
            ids.append(rid)
            kcnt[rid] += 1
        fres.append(ids)
        c = f.rate_cap
        caps.append(math.inf if c is None else c)
    nres = len(raw)
    eff = [
        cp[0] if n <= 1 else cp[0] / (1.0 + cp[1] * (n - 1))
        for cp, n in zip(raw, kcnt)
    ]
    free = list(eff)
    frozen = [False] * nflows
    rates = [0.0] * nflows
    capped = _capped_order(caps)
    ncapped = len(capped)
    ci = 0
    level = 0.0
    iterations = 0
    remaining = nflows
    while remaining:
        iterations += 1
        delta = math.inf
        for rid in range(nres):
            k = kcnt[rid]
            if k:
                room = free[rid] / k
                if room < delta:
                    delta = room
        while ci < ncapped and frozen[capped[ci]]:
            ci += 1
        if ci < ncapped:
            room = caps[capped[ci]] - level
            if room < delta:
                delta = room
        if delta < 0.0:
            delta = 0.0
        level += delta
        froze_any = False
        saturated: list[int] = []
        for rid in range(nres):
            k = kcnt[rid]
            if k:
                free[rid] -= delta * k
                if free[rid] <= 1e-9 * eff[rid]:
                    saturated.append(rid)
        if saturated:
            for fi in range(nflows):
                if not frozen[fi]:
                    ids = fres[fi]
                    for rid in saturated:
                        if rid in ids:
                            frozen[fi] = True
                            rates[fi] = level
                            remaining -= 1
                            for r2 in ids:
                                kcnt[r2] -= 1
                            froze_any = True
                            break
        while ci < ncapped:
            fi = capped[ci]
            if frozen[fi]:
                ci += 1
                continue
            if level >= caps[fi] - 1e-12:
                frozen[fi] = True
                rates[fi] = caps[fi]
                remaining -= 1
                for r2 in fres[fi]:
                    kcnt[r2] -= 1
                ci += 1
                froze_any = True
            else:
                break
        if not froze_any:
            for fi in range(nflows):
                if not frozen[fi]:
                    frozen[fi] = True
                    rates[fi] = level
            remaining = 0
    return rates, iterations


def _capped_order(caps: list[float]) -> list[int]:
    """Capped flow indices, stably sorted by cap (reference freeze order)."""
    idx = [fi for fi, c in enumerate(caps) if c != math.inf]
    idx.sort(key=caps.__getitem__)
    return idx


def solve_large(
    paths: dict[int, tuple[int, ...]],
    users: Sequence[dict[int, None]],
    cols: np.ndarray,
    capped: dict[float, dict[int, None]],
) -> tuple[dict[int, float], int]:
    """Numpy filling of one lowered component, with freezing in Python.

    ``paths`` maps each member's slot to its resource rows, in component
    order; row ``r`` has member slots ``users[r]`` and capacity, penalty
    and member count ``cols[:, r]`` (float64: counts are exact, and the
    divide and drain need no cast).  ``capped`` groups the capped members
    by rate cap.  Rates come back keyed by slot, in component order.

    Per iteration, numpy runs the water-level search (one divide and an
    ``argmin``), the drain and the saturation test, while Python freezes
    the members of the saturated rows and walks the cap order, collecting
    the frozen members' rows for one ``bincount`` that drops their
    concurrency.  A row with no members left has room
    ``free / 0 = inf`` (a saturated row's ``free`` is set to ``inf``
    first, since its drained value may be ``<= 0``, and an inert row
    starts at ``inf``).  Scalar accumulators (``level``, ``delta``) stay
    Python floats so their rounding matches the reference.
    """
    nres = len(users)
    cap, pen, kcnt = cols[:, :nres]
    kcnt = kcnt.copy()
    inf = math.inf
    # Capped members by cap, ascending: ``level >= cap - 1e-12`` holds for
    # a prefix of this order, and ``ci`` walks to the first member of it
    # still unfrozen, whose cap bounds the next level step.  Equal caps
    # freeze together at the same value, so their order is free.
    by_cap: list[int] = []
    cap_l: list[float] = []
    thr_l: list[float] = []
    for c in sorted(capped):
        group = capped[c]
        n = len(group)
        by_cap += group
        cap_l += [c] * n
        thr_l += [c - 1e-12] * n
    ncapped = len(by_cap)
    ci = 0
    unfrozen = dict.fromkeys(paths, True)
    rates = dict.fromkeys(paths, 0.0)
    rooms = np.empty(nres)
    drain = np.empty(nres)
    sat = np.empty(nres, bool)
    level = 0.0
    iterations = 0
    remaining = len(paths)
    # An inert row's discarded branch of ``eff`` may divide by 1 - pen.
    with np.errstate(divide="ignore", invalid="ignore"):
        eff = np.where(kcnt > 1.0, cap / (1.0 + pen * (kcnt - 1.0)), cap)
        thresh = 1e-9 * eff
        free = np.where(kcnt > 0.0, eff, inf)
        while True:
            iterations += 1
            np.divide(free, kcnt, out=rooms)
            delta = rooms.item(rooms.argmin())
            while ci < ncapped and not unfrozen[by_cap[ci]]:
                ci += 1
            if ci < ncapped:
                room = cap_l[ci] - level
                if room < delta:
                    delta = room
            if delta < 0.0:
                delta = 0.0
            level += delta
            np.multiply(kcnt, delta, out=drain)
            np.subtract(free, drain, out=free)
            np.less_equal(free, thresh, out=sat)
            sat_rows: list[int] = sat.nonzero()[0].tolist()
            froze: list[int] = []
            nnew = 0
            if sat_rows:
                if len(sat_rows) == 1:
                    free[sat_rows[0]] = inf
                else:
                    free[sat] = inf
                for r in sat_rows:
                    for fid in users[r]:
                        if unfrozen[fid]:
                            unfrozen[fid] = False
                            rates[fid] = level
                            froze += paths[fid]
                            nnew += 1
            # Cap freezes after saturation: a flow that also saturated
            # keeps the level, as in the reference.
            while ci < ncapped:
                fid = by_cap[ci]
                if unfrozen[fid]:
                    if level < thr_l[ci]:
                        break
                    unfrozen[fid] = False
                    rates[fid] = cap_l[ci]
                    froze += paths[fid]
                    nnew += 1
                ci += 1
            if not nnew:
                # Float underflow stalled the level; freeze the survivors.
                for fid, live in unfrozen.items():
                    if live:
                        rates[fid] = level
                break
            remaining -= nnew
            if not remaining:
                break
            kcnt -= np.bincount(froze, minlength=nres)
    return rates, iterations
