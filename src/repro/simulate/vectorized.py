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
  works on integer resource ids: the caller's :func:`id_table` maps each
  name to a row of two float arrays (capacity, penalty), each member
  arrives as its :func:`path_ids` tuple (the allocator caches them per
  slot), and a ``bincount`` over the flat id list gives the touched rows
  in sorted order with their concurrency.  The water-level search, drain
  and saturation test run as whole-array operations; freezing runs in
  Python over a resource -> flows index, because an iteration usually
  saturates only one to three resources.

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
per frozen flow), and resource order never enters a decision, so the
numpy kernel's sorted local ids give the rates and iteration counts of
the reference's first-appearance numbering.  Member order, likewise,
only permutes the freezes within an iteration and the stable order
among equal caps, whose flows freeze together at the same value — so
the numpy kernel takes members in any order.  All of it bit-for-bit,
pinned by the differential fuzz suite in
``tests/test_properties_vectorized.py`` (which also runs the numpy
kernel on shuffled id tables and shuffled members at every size).

Purity contract: kernels read ``Flow.path``/``rate_cap`` and the
capacity tables and write only locals (registered in
``repro.tools.config.DEFAULT_PURE_MODULES``; enforced by OPS103).
"""

from __future__ import annotations

import math
from itertools import accumulate, chain
from operator import itemgetter
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .flows import Flow

__all__ = [
    "VECTOR_MIN_FLOWS",
    "id_table",
    "path_ids",
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


def id_table(
    res_caps: dict[str, tuple[float, float]],
) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """Dense integer ids for a capacity table, for :func:`solve_large`.

    Ids follow the table's order, so a table rebuilt after appending
    entries keeps every existing name's id; returns the name -> id map
    and the capacity and penalty columns indexed by id.
    """
    res_id = {name: rid for rid, name in enumerate(res_caps)}
    table = np.array(list(res_caps.values()), dtype=np.float64).reshape(-1, 2)
    return res_id, table[:, 0], table[:, 1]


def path_ids(flow: "Flow", res_id: dict[str, int]) -> tuple[int, ...]:
    """The flow's path as :func:`id_table` ids, for :func:`solve_large`."""
    return tuple([res_id[r] for r in flow.path])


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
    paths: Sequence[tuple[int, ...]],
    caps: Sequence[float | None],
    cap_tbl: np.ndarray,
    pen_tbl: np.ndarray,
) -> tuple[list[float], int]:
    """Numpy kernel over integer resource ids, with freezing in Python.

    ``paths`` holds each member's resource ids (rows of ``cap_tbl`` and
    ``pen_tbl``, see :func:`id_table` and :func:`path_ids`) and ``caps``
    its rate cap; the rates come back in member order, and member order
    never changes them.  One ``np.fromiter`` flattens the ids, a
    ``bincount`` yields the touched rows in sorted order with their
    concurrency, and a resource -> flows CSR over local ids is built once.
    Per iteration, numpy runs the water-level search (one divide and
    ``np.minimum.reduce``), the drain and the saturation test, while
    Python freezes the flows of the saturated resources (usually one to
    three of them) and walks the cap-sorted prefix, collecting the frozen
    flows' resources for one ``bincount`` that drops their concurrency.
    Concurrency is held as float64 (the counts are exact), so the divide
    and the drain need no int -> float cast.  A resource leaves the
    search by dropping to zero flows: its room becomes ``free / 0 = inf``
    (a saturated resource's ``free`` is set to ``inf`` first, since its
    drained value may be ``<= 0``).  Scalar accumulators (``level``,
    ``delta``) stay Python floats so their rounding matches the reference.
    """
    nflows = len(paths)
    lens = [len(p) for p in paths]
    ids = np.fromiter(chain.from_iterable(paths), np.intp, sum(lens))
    counts = np.bincount(ids)
    rows = counts.nonzero()[0]
    nres = len(rows)
    local = np.empty(len(counts), np.intp)
    local[rows] = np.arange(nres)
    fr_flat = local[ids]
    kint = counts[rows]
    kcnt = kint.astype(np.float64)
    cap = cap_tbl[rows]
    eff = np.where(kint > 1, cap / (1.0 + pen_tbl[rows] * (kcnt - 1.0)), cap)
    thresh = 1e-9 * eff
    free = eff.copy()
    # Flows of local resource r: by_res[res_at[r]:res_at[r + 1]]; local
    # resources of flow fi: fres[flow_at[fi]:flow_at[fi + 1]].
    by_res = np.repeat(np.arange(nflows), lens)[
        np.argsort(fr_flat, kind="stable")
    ].tolist()
    res_at = [0, *np.cumsum(kint).tolist()]
    fres = fr_flat.tolist()
    flow_at = [0, *accumulate(lens)]
    # Capped flows sorted by cap (stable): ``level >= cap - 1e-12`` holds
    # for a prefix of this order, and ``ci`` walks to the first flow of
    # it still unfrozen, whose cap bounds the next level step.
    by_cap = sorted(
        ((c, fi) for fi, c in enumerate(caps) if c is not None), key=itemgetter(0)
    )
    capped = [fi for _, fi in by_cap]
    cap_l = [c for c, _ in by_cap]
    thr_l = [c - 1e-12 for c in cap_l]
    ncapped = len(capped)
    ci = 0
    unfrozen = [True] * nflows
    rates = [0.0] * nflows
    rooms = np.empty(nres)
    drain = np.empty(nres)
    sat = np.empty(nres, bool)
    min_reduce = np.minimum.reduce
    inf = math.inf
    level = 0.0
    iterations = 0
    remaining = nflows
    with np.errstate(divide="ignore"):
        while True:
            iterations += 1
            np.divide(free, kcnt, out=rooms)
            delta = float(min_reduce(rooms))
            while ci < ncapped and not unfrozen[capped[ci]]:
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
            nsat = np.count_nonzero(sat)
            froze: list[int] = []
            nnew = 0
            if nsat:
                if nsat == 1:
                    r = int(sat.argmax())
                    free[r] = inf
                    sat_rows: list[int] = [r]
                else:
                    sat_rows = sat.nonzero()[0].tolist()
                    free[sat] = inf
                for r in sat_rows:
                    for fi in by_res[res_at[r]:res_at[r + 1]]:
                        if unfrozen[fi]:
                            unfrozen[fi] = False
                            rates[fi] = level
                            froze += fres[flow_at[fi]:flow_at[fi + 1]]
                            nnew += 1
            # Cap freezes after saturation: a flow that also saturated
            # keeps the level, as in the reference.
            while ci < ncapped:
                fi = capped[ci]
                if unfrozen[fi]:
                    if level < thr_l[ci]:
                        break
                    unfrozen[fi] = False
                    rates[fi] = cap_l[ci]
                    froze += fres[flow_at[fi]:flow_at[fi + 1]]
                    nnew += 1
                ci += 1
            if not nnew:
                # Float underflow stalled the level; freeze the survivors.
                for fi in range(nflows):
                    if unfrozen[fi]:
                        rates[fi] = level
                break
            remaining -= nnew
            if not remaining:
                break
            kcnt -= np.bincount(froze, minlength=nres)
    return rates, iterations
