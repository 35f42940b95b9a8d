"""Flows and max-min fair rate allocation (progressive filling).

A :class:`Flow` is a transfer of ``size`` bytes across a path of resources.
:func:`allocate_rates` computes the max-min fair allocation: conceptually
every flow's rate rises uniformly ("water filling") until some resource
saturates; flows through that resource freeze at the current level, and the
rest keep rising.  The result is the classic fluid model of TCP-fair sharing
and of a disk head time-slicing among concurrent requests.

The allocator is a pure function so it can be property-tested in isolation:
feasibility (no resource over capacity) and max-min optimality (every flow
is bottlenecked by some saturated resource) are invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Annotated

from ..units import BYTES, BYTES_PER_SEC

if TYPE_CHECKING:  # pragma: no cover
    from .resources import Resource

_flow_ids = count()
_INF = float("inf")


def effective_capacity(
    resource: "Resource | float", concurrency: int
) -> Annotated[float, BYTES_PER_SEC]:
    """Effective capacity of a resource entry under ``concurrency`` flows."""
    if isinstance(resource, (int, float)):
        return float(resource)
    return resource.effective_capacity(concurrency)


@dataclass(eq=False, slots=True)
class Flow:
    """A transfer in progress.

    ``remaining`` counts bytes still to move; the engine decrements it as
    simulated time advances.  ``payload`` is an opaque handle the caller uses
    to route the completion callback.  ``fid`` is the engine's slot id while
    the flow is registered in a :class:`~repro.simulate.flowtable.FlowTable`
    (-1 otherwise) — stashed on the flow so the per-event hot path reads an
    attribute instead of hashing the flow into a lookup dict.
    """

    size: Annotated[float, BYTES]
    path: tuple[str, ...]
    payload: object = None
    rate_cap: Annotated[float, BYTES_PER_SEC] | None = None
    flow_id: int = field(default_factory=lambda: next(_flow_ids))
    remaining: Annotated[float, BYTES] = field(init=False)
    fid: int = field(init=False)

    def __post_init__(self) -> None:
        if not 0 < self.size < _INF:
            raise ValueError(f"flow size must be positive and finite, got {self.size!r}")
        if not self.path:
            raise ValueError("flow path must name at least one resource")
        if len(set(self.path)) != len(self.path):
            raise ValueError("flow path has duplicate resources")
        if self.rate_cap is not None and not self.rate_cap > 0:
            raise ValueError(f"rate_cap must be positive, got {self.rate_cap!r}")
        self.remaining = float(self.size)
        self.fid = -1


def allocate_rates(
    flows: list[Flow],
    resources: dict[str, "Resource"] | dict[str, float],
    *,
    stats: dict[str, int] | None = None,
) -> dict[Flow, float]:
    """Max-min fair rates for ``flows`` over ``resources``.

    ``resources`` maps names to :class:`~repro.simulate.resources.Resource`
    objects (whose concurrency penalty shrinks the effective capacity under
    load) or to plain float capacities.  Honours per-flow ``rate_cap``
    values (a capped flow freezes when the water level reaches its cap —
    the standard max-min extension for flows with demand limits).  Raises
    ``KeyError`` if a flow crosses an unknown resource.  At least one flow
    freezes per iteration, so the loop runs at most F times.

    ``stats``, when given, receives ``{"iterations": <water-filling loop
    count>}`` — instrumentation only, it never alters the allocation.
    """
    if not flows:
        if stats is not None:
            stats["iterations"] = 0
        return {}
    users: dict[str, list[Flow]] = {}
    for f in flows:
        for r in f.path:
            if r not in resources:
                raise KeyError(f"flow crosses unknown resource {r!r}")
            users.setdefault(r, []).append(f)

    capacities = {
        r: effective_capacity(resources[r], len(us)) for r, us in users.items()
    }
    free = dict(capacities)
    # Incremental bookkeeping (the hot loop of the whole simulator): the
    # number of unfrozen flows per resource is maintained on freeze events
    # instead of being recounted every iteration.
    unfrozen_count = {r: len(us) for r, us in users.items()}
    unfrozen: set[Flow] = set(flows)
    # (cap, flow) pairs so the capped path never re-proves rate_cap is not
    # None; sorted on the cap alone — Flow defines no ordering, and the
    # stable sort keeps submission order for bit-identical cap ties.
    capped: list[tuple[float, Flow]] = sorted(
        ((f.rate_cap, f) for f in flows if f.rate_cap is not None),
        key=lambda pair: pair[0],
    )
    capped_idx = 0
    level = 0.0
    iterations = 0
    rates: dict[Flow, float] = {}

    def freeze(f: Flow, rate: float) -> None:
        unfrozen.discard(f)
        rates[f] = rate
        for r in f.path:
            unfrozen_count[r] -= 1

    while unfrozen:
        iterations += 1
        # Headroom: how much further the water level can rise before some
        # resource saturates or some flow hits its rate cap.
        delta = None
        for r, k in unfrozen_count.items():
            if k == 0:
                continue
            room = free[r] / k
            if delta is None or room < delta:
                delta = room
        while capped_idx < len(capped) and capped[capped_idx][1] not in unfrozen:
            capped_idx += 1
        if capped_idx < len(capped):
            room = capped[capped_idx][0] - level
            if delta is None or room < delta:
                delta = room
        assert delta is not None  # every unfrozen flow uses some resource
        delta = max(delta, 0.0)
        level += delta
        saturated: list[str] = []
        for r, k in unfrozen_count.items():
            if k == 0:
                continue
            free[r] -= delta * k
            if free[r] <= 1e-9 * capacities[r]:
                saturated.append(r)
        froze_any = False
        for r in saturated:
            for f in users[r]:
                if f in unfrozen:
                    freeze(f, level)
                    froze_any = True
        while capped_idx < len(capped):
            cap, f = capped[capped_idx]
            if f not in unfrozen:
                capped_idx += 1
                continue
            if level >= cap - 1e-12:
                # Freeze at the cap, releasing the flow's resource claims so
                # the remaining flows can grow past it.
                freeze(f, cap)
                capped_idx += 1
                froze_any = True
            else:
                break
        # Guard against float underflow stalling the loop.
        if not froze_any:
            for f in flows:
                if f in unfrozen:
                    freeze(f, level)
    if stats is not None:
        stats["iterations"] = iterations
    return rates


def verify_allocation(
    flows: list[Flow],
    resources: dict[str, "Resource"] | dict[str, float],
    rates: dict[Flow, float],
    *,
    tol: float = 1e-6,
) -> None:
    """Assert feasibility + max-min optimality of an allocation (for tests).

    Feasibility: per-resource load ≤ effective capacity (+tol).  Max-min:
    every flow crosses at least one saturated resource (its bottleneck) or
    sits at its own rate cap — otherwise its rate could rise without
    hurting anyone.
    """
    load: dict[str, float] = {}
    concurrency: dict[str, int] = {}
    for f in flows:
        for r in f.path:
            load[r] = load.get(r, 0.0) + rates[f]
            concurrency[r] = concurrency.get(r, 0) + 1
    capacities = {r: effective_capacity(resources[r], concurrency[r]) for r in load}
    for r, used in load.items():
        cap = capacities[r]
        if used > cap * (1 + tol):
            raise AssertionError(f"resource {r} over capacity: {used} > {cap}")
    for f in flows:
        capped = f.rate_cap is not None and rates[f] >= f.rate_cap * (1 - 1e-3)
        bottlenecked = any(
            load[r] >= capacities[r] * (1 - 1e-3) for r in f.path
        )
        if not (bottlenecked or capped):
            raise AssertionError(f"flow {f.flow_id} has no saturated resource or cap")
