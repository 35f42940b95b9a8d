"""Flat-array water-filling kernels for component-sliced rate solves.

:func:`~repro.simulate.flows.allocate_rates` is the semantic reference:
progressive filling over a ``Flow``/``Resource`` object graph, one dict
lookup and one attribute walk per touched resource per iteration.  This
module lowers one connected component to flat arrays once and then runs
the *same* decision sequence over integer indices:

* **lowering** (:func:`lower_component`): resources are renumbered in
  first-appearance order over the members' paths (the reference's
  ``users`` dict insertion order), producing a flow→resource incidence
  list in CSR form (``fr_ptr``/``fr_res``), the reverse resource→flow
  lists, per-resource effective capacities at the component's
  concurrency, and per-flow rate caps (``inf`` = uncapped);
* **kernel dispatch** (:func:`solve_lowered`): a closed-form path for
  singleton components, a flat scalar kernel for small components, and a
  numpy kernel (:data:`VECTOR_MIN_FLOWS` and up) that batches the
  water-level search, saturation detection and freezing as whole-array
  operations.

Identity is the contract, not an aspiration.  Every float operation is
the one the reference performs: effective capacity uses the same
``capacity / (1 + penalty·(k-1))`` expression, the water level is
accumulated in the same order (``level += delta`` with ``delta`` the
minimum over the same candidate set — float min is order-independent),
saturation uses the same ``free ≤ 1e-9·capacity`` guard, caps freeze in
the same stable ``rate_cap``-sorted order inside the same
``level ≥ cap − 1e-12`` window, and the float-underflow fallback freezes
the same survivors at the same level.  Freeze *order* within an
iteration only permutes commutative updates (every frozen flow gets the
same level; per-resource unfrozen counts are decremented once per frozen
flow), so rates are bit-for-bit equal to the reference's — pinned by the
differential fuzz suite in ``tests/test_properties_vectorized.py``.

Purity contract: kernels read ``Flow.path``/``rate_cap`` and the
capacity table and write only locals (registered in
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
    "Lowered",
    "lower_component",
    "res_entry",
    "solve_component",
    "solve_lowered",
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


class Lowered:
    """One component lowered to flat index form (see module docstring)."""

    __slots__ = ("nflows", "nres", "fr", "rusers", "eff", "kcnt", "caps")

    def __init__(
        self,
        nflows: int,
        nres: int,
        fr: list[list[int]],
        rusers: list[list[int]],
        eff: list[float],
        kcnt: list[int],
        caps: list[float],
    ) -> None:
        self.nflows = nflows
        self.nres = nres
        #: flow index -> local resource ids along its path (path order).
        self.fr = fr
        #: local resource id -> flow indices crossing it (flow order).
        self.rusers = rusers
        #: effective capacity per local resource at component concurrency.
        self.eff = eff
        #: initial unfrozen-flow count per local resource.
        self.kcnt = kcnt
        #: per-flow rate cap (``math.inf`` = uncapped).
        self.caps = caps


def lower_component(
    members: Sequence["Flow"], res_caps: dict[str, tuple[float, float]]
) -> Lowered:
    """Lower ``members`` (active-list order) against a capacity table.

    ``res_caps`` maps resource names to ``(capacity, penalty)`` floats
    (see :func:`res_entry`).  Resource numbering and concurrency are
    derived from the members alone, exactly as the reference derives its
    ``users`` table from the flow list it is handed.
    """
    res_idx: dict[str, int] = {}
    raw: list[tuple[float, float]] = []
    kcnt: list[int] = []
    rusers: list[list[int]] = []
    fr: list[list[int]] = []
    caps: list[float] = []
    for fi, f in enumerate(members):
        ids = []
        for r in f.path:
            rid = res_idx.get(r)
            if rid is None:
                rid = len(raw)
                res_idx[r] = rid
                raw.append(res_caps[r])
                kcnt.append(0)
                rusers.append([])
            ids.append(rid)
            kcnt[rid] += 1
            rusers[rid].append(fi)
        fr.append(ids)
        cap = f.rate_cap
        caps.append(math.inf if cap is None else cap)
    eff = [
        cap if n <= 1 else cap / (1.0 + pen * (n - 1))
        for (cap, pen), n in zip(raw, kcnt)
    ]
    return Lowered(len(members), len(raw), fr, rusers, eff, kcnt, caps)


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


def solve_pair(
    fa: "Flow", fb: "Flow", res_caps: dict[str, tuple[float, float]]
) -> tuple[list[float], int]:
    """Fused kernel for the ubiquitous two-flow component.

    Resources partition into three groups — exclusive to ``fa``,
    exclusive to ``fb``, shared — whose concurrency counts depend only
    on which of the two flows is still unfrozen.  The iteration is the
    reference loop with the per-resource bookkeeping specialised to
    those groups: same deltas (float ``min`` over the same values),
    same saturation thresholds, same freeze order, so the rates are
    bit-for-bit the reference's.  (Path membership tests suffice for
    the concurrency counts: :class:`Flow` rejects duplicate resources
    in a path at construction.)
    """
    pa, pb = fa.path, fb.path
    a_free: list[float] = []
    a_thr: list[float] = []
    b_free: list[float] = []
    b_thr: list[float] = []
    s_free: list[float] = []
    s_thr: list[float] = []
    for r in pa:
        cap, pen = res_caps[r]
        if r in pb:
            e = cap / (1.0 + pen)
            s_free.append(e)
            s_thr.append(1e-9 * e)
        else:
            a_free.append(cap)
            a_thr.append(1e-9 * cap)
    for r in pb:
        if r not in pa:
            cap, pen = res_caps[r]
            b_free.append(cap)
            b_thr.append(1e-9 * cap)
    ca = fa.rate_cap
    cb = fb.rate_cap
    ca = math.inf if ca is None else ca
    cb = math.inf if cb is None else cb
    # Stable cap-sorted freeze order over (fa, fb).
    if cb < ca:
        cap_order = ((cb, 1), (ca, 0))
    else:
        cap_order = ((ca, 0), (cb, 1))
    live = [True, True]
    rates = [0.0, 0.0]
    level = 0.0
    iterations = 0
    while live[0] or live[1]:
        iterations += 1
        delta = math.inf
        if live[0]:
            for v in a_free:
                if v < delta:
                    delta = v
        if live[1]:
            for v in b_free:
                if v < delta:
                    delta = v
        k = live[0] + live[1]
        if s_free:
            for v in s_free:
                room = v / k
                if room < delta:
                    delta = room
        for cap, fi in cap_order:
            if live[fi]:
                if cap != math.inf:
                    room = cap - level
                    if room < delta:
                        delta = room
                break
        if delta < 0.0:
            delta = 0.0
        level += delta
        froze_any = False
        sat_a = sat_b = sat_s = False
        if live[0] and a_free:
            for i in range(len(a_free)):
                a_free[i] -= delta
                if a_free[i] <= a_thr[i]:
                    sat_a = True
        if live[1] and b_free:
            for i in range(len(b_free)):
                b_free[i] -= delta
                if b_free[i] <= b_thr[i]:
                    sat_b = True
        if s_free:
            d2 = delta * k
            for i in range(len(s_free)):
                s_free[i] -= d2
                if s_free[i] <= s_thr[i]:
                    sat_s = True
        if live[0] and (sat_a or sat_s):
            live[0] = False
            rates[0] = level
            froze_any = True
        if live[1] and (sat_b or sat_s):
            live[1] = False
            rates[1] = level
            froze_any = True
        for cap, fi in cap_order:
            if not live[fi]:
                continue
            if cap != math.inf and level >= cap - 1e-12:
                live[fi] = False
                rates[fi] = cap
                froze_any = True
            else:
                break
        if not froze_any:
            if live[0]:
                live[0] = False
                rates[0] = level
            if live[1]:
                live[1] = False
                rates[1] = level
    return rates, iterations


def solve_small(
    members: Sequence["Flow"], res_caps: dict[str, tuple[float, float]]
) -> tuple[list[float], int]:
    """Fused lowering + scalar filling for small multi-flow components.

    The measured workloads solve millions of 2–3 flow components, where
    building the :class:`Lowered` index structures costs more than the
    filling itself.  This kernel lowers inline (no reverse resource→flow
    lists) and detects freezes by scanning the few member flows against
    the saturated-resource list — the same freezes the reference performs,
    in a different (commutative) order within the iteration.
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


def solve_component(
    members: Sequence["Flow"], res_caps: dict[str, tuple[float, float]]
) -> tuple[list[float], int]:
    """Rates (member order) + iterations via the full kernel dispatch.

    The one entry point whose dispatch mirrors
    :class:`~repro.simulate.components.ComponentAllocator`: closed form
    for singletons, :func:`solve_small` below the cutoff, the numpy
    kernel at and above it.
    """
    k = len(members)
    if k == 1:
        return [solve_single(members[0], res_caps)], 1
    if k == 2:
        return solve_pair(members[0], members[1], res_caps)
    if k < VECTOR_MIN_FLOWS:
        return solve_small(members, res_caps)
    return _solve_numpy(lower_component(members, res_caps))


def _capped_order(caps: list[float]) -> list[int]:
    """Capped flow indices, stably sorted by cap (reference freeze order)."""
    idx = [fi for fi, c in enumerate(caps) if c != math.inf]
    idx.sort(key=caps.__getitem__)
    return idx


def _solve_scalar(low: Lowered) -> tuple[list[float], int]:
    """Flat scalar kernel: the reference loop over integer indices."""
    nflows = low.nflows
    nres = low.nres
    fr = low.fr
    rusers = low.rusers
    eff = low.eff
    caps = low.caps
    kcnt = list(low.kcnt)
    free = list(eff)
    thresh = [1e-9 * c for c in eff]
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
                if free[rid] <= thresh[rid]:
                    saturated.append(rid)
        for rid in saturated:
            for fi in rusers[rid]:
                if not frozen[fi]:
                    frozen[fi] = True
                    rates[fi] = level
                    remaining -= 1
                    for r2 in fr[fi]:
                        kcnt[r2] -= 1
                    froze_any = True
        while ci < ncapped:
            fi = capped[ci]
            if frozen[fi]:
                ci += 1
                continue
            if level >= caps[fi] - 1e-12:
                frozen[fi] = True
                rates[fi] = caps[fi]
                remaining -= 1
                for r2 in fr[fi]:
                    kcnt[r2] -= 1
                ci += 1
                froze_any = True
            else:
                break
        if not froze_any:
            # Float underflow stalled the level; freeze the survivors.
            for fi in range(nflows):
                if not frozen[fi]:
                    frozen[fi] = True
                    rates[fi] = level
            remaining = 0
    return rates, iterations


def _solve_numpy(low: Lowered) -> tuple[list[float], int]:
    """Numpy kernel: the reference loop as whole-array operations.

    Per iteration: one masked min for the water-level search, one fused
    subtract for the capacity drain, one comparison for saturation
    detection, and scatter/bincount passes for masked freezing.  Scalar
    accumulators (``level``, ``delta``) stay Python floats so their
    rounding matches the reference exactly.
    """
    nflows = low.nflows
    nres = low.nres
    eff = np.asarray(low.eff)
    thresh = 1e-9 * eff
    free = eff.copy()
    kcnt = np.asarray(low.kcnt, dtype=np.int64)
    caps = low.caps
    lens = np.fromiter((len(ids) for ids in low.fr), np.int64, nflows)
    fr_flat = np.fromiter(
        (rid for ids in low.fr for rid in ids),
        np.int64,
        int(lens.sum()),  # opass: reassoc-ok -- int64 sum, addition is exact
    )
    flow_idx = np.repeat(np.arange(nflows, dtype=np.int64), lens)
    fr_ptr = np.zeros(nflows + 1, np.int64)
    np.cumsum(lens, out=fr_ptr[1:])
    frozen = np.zeros(nflows, bool)
    newf = np.empty(nflows, bool)
    rates = np.zeros(nflows)
    capped = _capped_order(caps)
    ncapped = len(capped)
    ci = 0
    level = 0.0
    iterations = 0
    remaining = nflows
    while remaining:
        iterations += 1
        live = kcnt > 0
        rooms = free[live] / kcnt[live]
        delta = float(rooms.min())
        while ci < ncapped and frozen[capped[ci]]:
            ci += 1
        if ci < ncapped:
            room = caps[capped[ci]] - level
            if room < delta:
                delta = room
        if delta < 0.0:
            delta = 0.0
        level += delta
        free[live] -= delta * kcnt[live]
        sat = live & (free <= thresh)
        froze_any = False
        if sat.any():
            hit = sat[fr_flat]
            newf[:] = False
            newf[flow_idx[hit]] = True
            newf &= ~frozen
            nnew = int(newf.sum())  # opass: reassoc-ok -- bool sum, exact count
            if nnew:
                rates[newf] = level
                frozen |= newf
                remaining -= nnew
                kcnt -= np.bincount(fr_flat[newf[flow_idx]], minlength=nres)
                froze_any = True
        while ci < ncapped:
            fi = capped[ci]
            if frozen[fi]:
                ci += 1
                continue
            if level >= caps[fi] - 1e-12:
                frozen[fi] = True
                rates[fi] = caps[fi]
                remaining -= 1
                kcnt[fr_flat[fr_ptr[fi] : fr_ptr[fi + 1]]] -= 1
                ci += 1
                froze_any = True
            else:
                break
        if not froze_any:
            rates[~frozen] = level
            remaining = 0
    return rates.tolist(), iterations


def solve_lowered(low: Lowered) -> tuple[list[float], int]:
    """Rates (member order) + iteration count for a lowered component."""
    if low.nflows >= VECTOR_MIN_FLOWS:
        return _solve_numpy(low)
    return _solve_scalar(low)

