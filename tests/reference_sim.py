"""Naive fluid-flow engine: the differential oracle for the simulator.

This module states the engine's model as directly as possible, with none
of :mod:`repro.simulate.engine`'s machinery (component slicing, the lazy
completion heap, credit accounting, timer-wave coalescing):

* before every event the whole network is re-solved with the pure
  :func:`~repro.simulate.flows.allocate_rates` over all active flows;
* every active flow is settled (``remaining -= rate·dt``) at every event;
* the next completion is a full scan: the earliest prediction, and among
  the predictions within 1e-9 relative of it the lowest ``flow_id``; a
  completion wins a tie against a timer (``<=``);
* after each event, every flow drained to ≤ ``REMAINING_EPS`` bytes
  retires, in ``flow_id`` order.

The tie contract: flows that finish at the same ``sim.now`` fire in
``flow_id`` order.

``tests/test_sim_fastforward.py`` and the engine differentials replay
workloads through both engines and require the same event order with
event times within 1e-9 relative (the component-sliced solves round the
water level differently across components, and settling once per rate
epoch rounds differently from settling at every event).

Do not optimise this file: its only job is to be obviously right.
"""

from __future__ import annotations

import heapq
import math
from itertools import count

from repro.simulate.flows import Flow, allocate_rates

REMAINING_EPS = 1e-6
TIE_WINDOW = 1e-9


class ReferenceSimulation:
    """The subset of ``Simulation``'s API the differential tests drive."""

    def __init__(self) -> None:
        self.now = 0.0
        self.events_processed = 0
        self.completed_flows = 0
        self._resources: dict = {}
        self._timers: list = []
        self._seq = count()
        self._flows: dict[Flow, object] = {}  # flow -> callback, in start order
        self._rates: dict[Flow, float] = {}
        self._dirty = False

    def add_resource(self, resource) -> None:
        if resource.name in self._resources:
            raise ValueError(f"duplicate resource {resource.name!r}")
        self._resources[resource.name] = resource

    def add_resources(self, resources) -> None:
        for r in resources:
            self.add_resource(r)

    def schedule(self, delay: float, callback) -> None:
        heapq.heappush(self._timers, (self.now + delay, next(self._seq), callback))

    def start_flow(self, size, path, on_complete, payload=None, rate_cap=None) -> Flow:
        flow = Flow(size, tuple(path), payload, rate_cap)
        for r in flow.path:
            if r not in self._resources:
                raise KeyError(f"unknown resource {r!r}")
        self._flows[flow] = on_complete
        self._dirty = True
        return flow

    def cancel_flow(self, flow: Flow) -> None:
        del self._flows[flow]  # already settled: every event settles all
        self._dirty = True

    def current_rate(self, flow: Flow) -> float:
        return self._solve().get(flow, 0.0)

    def _solve(self) -> dict[Flow, float]:
        if self._dirty:
            self._rates = allocate_rates(list(self._flows), self._resources)
            self._dirty = False
        return self._rates

    def _advance(self, t: float) -> None:
        """Settle every flow over ``[now, t]`` at the rates now in force."""
        rates = self._solve()
        dt = t - self.now
        if dt > 0.0:
            for f in self._flows:
                f.remaining = max(0.0, f.remaining - rates[f] * dt)
        self.now = t

    def _next_completion(self) -> tuple[float, Flow | None]:
        rates = self._solve()
        preds = [(self.now + f.remaining / rates[f], f) for f in self._flows]
        if not preds:
            return math.inf, None
        t_min = min(t for t, _ in preds)
        snap = t_min + TIE_WINDOW * max(1.0, abs(t_min))
        return min((p for p in preds if p[0] <= snap), key=lambda p: p[1].flow_id)

    def _retire(self, flow: Flow) -> None:
        callback = self._flows.pop(flow)
        self._dirty = True
        self.completed_flows += 1
        callback(flow)

    def run(self, until: float | None = None, max_events: int = 10_000_000) -> float:
        events = 0
        while True:
            flow_t, flow = self._next_completion()
            timer_t = self._timers[0][0] if self._timers else math.inf
            if until is not None and min(flow_t, timer_t) > until:
                self._advance(until)
                break
            if flow is None and not self._timers:
                break
            if flow is not None and flow_t <= timer_t:
                self._advance(flow_t)
                flow.remaining = 0.0
                self._retire(flow)
            else:
                self._advance(timer_t)
                heapq.heappop(self._timers)[2]()
            drained = [f for f in self._flows if f.remaining <= REMAINING_EPS]
            for f in sorted(drained, key=lambda f: f.flow_id):
                if f in self._flows:  # an earlier retire's callback may cancel it
                    self._retire(f)
            self.events_processed += 1
            events += 1
            if events > max_events:
                raise RuntimeError(f"exceeded {max_events} events")
        return self.now
