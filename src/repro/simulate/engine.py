"""Discrete-event simulation engine with fluid flows.

The engine advances a clock over two kinds of events:

* **timers** — callbacks scheduled at absolute times (compute phases, seek
  latencies, barrier releases);
* **flow completions** — a :class:`~repro.simulate.flows.Flow` finishes when
  its remaining bytes reach zero under the current max-min fair rates.

Rates are re-solved lazily: only when the active flow set changes (a flow
starts, completes or is cancelled).  Between events every flow's
``remaining`` decreases linearly, so the next completion time is exact —
no fixed time step, no numerical integration error beyond float
arithmetic.

The hot path is O(affected component) end to end, and one fused loop
(:meth:`Simulation.run`) drives every run, bounded or not:

* flow state lives in a structure-of-arrays
  :class:`~repro.simulate.flowtable.FlowTable` (remaining/rate slot
  arrays with free-list recycling), so the settle pass and the bulk
  completion predictions are whole-array kernels instead of per-Flow
  attribute walks.  Each fact about a flow has one owner: its table slot
  is its only id, ``FlowTable.rate`` its only rate, and
  ``Simulation._flows`` the only registry of active flows;
* rates come from a persistent :class:`~repro.simulate.components.
  ComponentAllocator` that tracks the connected components of the
  flow–resource graph and re-runs water-filling only for the components
  a flow event touched — the measured workloads split into many
  components of median size one flow;
* the next completion and the retire sweep share one
  **lazy-invalidation heap** of entries ``(bound, time, flow_id, fid,
  seq)``.  ``time = settled_at + remaining/rate`` is the flow's predicted
  absolute finish, invariant while its rate holds (``remaining`` drains
  linearly at exactly that rate), and ``bound = settled_at + (remaining −
  1 byte)/rate`` is a pessimistic retire time.  The heap is keyed by
  ``bound``; IEEE rounding is monotone, so ``bound ≤ time`` and every
  entry left behind a bound beyond some horizon also has its ``time``
  beyond it.  ``solve()`` reports exactly the re-solved flows that are
  new or whose rate is not bit-identical to the last solve's, in every
  component tier.  Only reported flows are re-pushed, each stamped with
  a sequence number, and superseded/finished entries are skipped lazily
  on pop.  Candidates within a ≤1e-9-relative tie window of the earliest
  ``time`` are re-predicted fresh and snapped to the minimal
  ``flow_id``, and the retire sweep fires in ``flow_id`` order too.  The
  tie contract: flows that finish at the same ``sim.now`` fire in
  ``flow_id`` order.  That holds whatever their sizes, and flows whose
  finishes lie within the window share an instant, so a flow one ulp
  larger than another may fire first.  Entries pulled out of the heap
  park in a **tie group** side table (fid → parked time) instead of
  being re-pushed, so a wave of w simultaneous completions costs O(w)
  dict scans per event rather than O(w log n) heap churn — the
  whole-wave pop/re-push cycle per event is what collapsed throughput at
  2048+ nodes;
* **timer waves coalesce**: all timers sharing the *exact* timestamp of
  the one being processed drain in a single settle/solve cycle when a
  conservative bound proves the replay is unchanged — every active
  flow's remaining, divided by the fastest resource's capacity, keeps
  any completion strictly beyond the wave's instant (so the per-timer
  event-selection checks and sweeps a one-timer-per-event replay would
  run are all provably no-ops).  Per-component water-filling depends
  only on the final membership of the epoch, so one solve at the end of
  the wave writes the same rates the per-timer solves would have;
* flow progress uses **credit accounting**: each flow's ``remaining`` is
  settled only at rate-epoch boundaries (one fused ``remaining -=
  rate·dt`` per epoch instead of one per event), and the sweep never
  scans the slot range at all: the heap entries whose ``bound`` has come
  due, plus the tie group, are the only slots whose drain could have
  reached the completion threshold, so each sweep is one heap peek plus
  the exact drain arithmetic on those candidates.

The dense slot arrays are authoritative for ``remaining``; the ``Flow``
objects are synchronised at observation points (completion, cancellation,
every ``run`` return).  A bounded ``run(until=...)`` that stops early
does not settle the slot arrays — it reports each flow's drained
remaining on the ``Flow`` only — so a run split at any number of
``until`` cuts replays exactly the floats of the unsplit run.
Component-sliced solves match the pure :func:`~repro.simulate.flows.
allocate_rates` operation for operation *per component*; across
components the global water level of a whole-network solve interleaves
float rounding differently, so end-to-end event times agree with the
naive engine in ``tests/reference_sim.py`` to ≤ 1e-9 relative, in the
same event order (pinned by ``tests/test_sim_fastforward.py``; the
exact trajectories are pinned by ``tests/test_sim_golden.py``).
"""

from __future__ import annotations

import heapq
import math
from itertools import count
from typing import Callable, Sequence

import numpy as np

from .components import ComponentAllocator
from .flows import Flow
from .flowtable import FlowTable
from .perf import SimPerf, wall_clock
from .resources import Resource

#: Completion slack: a flow is done when remaining ≤ REMAINING_EPS bytes.
REMAINING_EPS = 1e-6

#: Relative width of the lazy heap's tie window: entries parked this close
#: to the earliest parked time are re-predicted fresh before the winner is
#: chosen, so the pick is
#: made from the same floats a full rescan of every flow would produce.
#: Parked entries drift from their fresh value only by the float rounding
#: of the settles that ran meanwhile (≲1e-10 s absolute over the largest
#: benches) — orders of magnitude inside this window, so the true earliest
#: completion is always among the re-predicted candidates.
_PEEK_TIE_WINDOW = 1e-9


class Simulation:
    """Event loop owning the clock, timers, resources and active flows."""

    def __init__(self) -> None:
        self.now = 0.0
        self.perf = SimPerf()
        self._timers: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = count()
        self._resources: dict[str, Resource] = {}
        self._alloc = ComponentAllocator()
        #: the active set: flow -> completion callback, insertion-ordered.
        self._flows: dict[Flow, Callable[[Flow], None]] = {}
        self._dirty = True
        self.completed_flows = 0
        self.events_processed = 0
        #: dense slot arrays for the active flow set.  The allocator
        #: tracks flows under the table's slot ids and solve() writes
        #: rates straight into its rate array, the rates' only copy.  See
        #: :mod:`repro.simulate.flowtable` for the layout and the
        #: free-list recycling.
        self._table = FlowTable()
        #: simulated time all slots' ``remaining`` values refer to
        self._settled_at = 0.0
        # The lazy-invalidation heap, keyed by the first field of its
        # ``(bound, time, flow_id, fid, seq)`` entries (see the module
        # docstring).  ``_entry_seq[fid]`` names the slot's only live
        # sequence number (-1 = none), so superseded and finished entries
        # are recognised and discarded on pop.  Changed fids reported by
        # solve() park in ``_pending_push`` (an insertion-ordered dict
        # used as a set) until the loop's next push.
        self._heap: list[tuple[float, float, int, int, int]] = []
        self._entry_seq: list[int] = []
        self._push_seq = 0
        self._pending_push: dict[int, None] = {}
        #: tie group: fid -> parked time, for flows whose heap entry the
        #: peek pulled out.  A slot lives in exactly one of heap (live
        #: seq) / tie group / nowhere, and heap ∪ tie group holds one
        #: parked time per active flow; re-rated members go back through
        #: the heap, finished members are dropped by ``_release_fid``.
        self._tie: dict[int, float] = {}
        #: fastest single-flow capacity over all resources — the hard
        #: upper bound on any flow's rate, for the coalescing bound below.
        self._cap_max = 0.0
        #: coalescing floor: at ``_scan_at`` every active flow's settled
        #: remaining was ≥ ``_scan_floor`` (lowered by every flow start,
        #: refreshed — at most once per failing coalesce check — by one
        #: fused scan in :meth:`_can_coalesce`).
        self._scan_floor = math.inf
        self._scan_at = 0.0

    # -- configuration -------------------------------------------------------

    def add_resource(self, resource: Resource) -> None:
        if resource.name in self._resources:
            raise ValueError(f"duplicate resource {resource.name!r}")
        self._resources[resource.name] = resource
        cap = resource.effective_capacity(1)
        if cap > self._cap_max:
            self._cap_max = cap
        self._alloc.register(resource.name, resource)

    def add_resources(self, resources: list[Resource]) -> None:
        for r in resources:
            self.add_resource(r)

    def has_resource(self, name: str) -> bool:
        return name in self._resources

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` simulated seconds."""
        if not 0.0 <= delay < math.inf:
            raise ValueError(f"delay must be finite and non-negative, got {delay!r}")
        heapq.heappush(self._timers, (self.now + delay, next(self._seq), callback))

    def start_flow(
        self,
        size: float,
        path: "Sequence[str]",
        on_complete: Callable[[Flow], None],
        payload: object = None,
        rate_cap: float | None = None,
    ) -> Flow:
        """Begin a transfer now; ``on_complete(flow)`` fires when it finishes.

        ``path`` may be any sequence of resource names; callers that loop
        (the runner's read issue path) pass an already-built tuple so no
        per-flow copy is made.
        """
        tpath = path if isinstance(path, tuple) else tuple(path)
        flow = Flow(size, tpath, payload, rate_cap)
        resources = self._resources
        for r in tpath:
            if r not in resources:
                raise KeyError(f"unknown resource {r!r}")
        self._flows[flow] = on_complete
        fid = self._table.acquire(flow)
        entry_seq = self._entry_seq
        if fid == len(entry_seq):
            entry_seq.append(-1)
        if flow.remaining < self._scan_floor:
            self._scan_floor = flow.remaining
        self._alloc.add(flow, fid)
        self._dirty = True
        self.perf.flows_started += 1
        return flow

    def cancel_flow(self, flow: Flow) -> None:
        """Abort a transfer: no completion callback will fire.

        Used for failure injection (the serving node died mid-transfer).
        """
        if flow not in self._flows:
            raise KeyError("flow is not active")
        # Credit the interval since the last settle point so the caller
        # observes the transfer's true residue.
        self._settle_all()
        del self._flows[flow]
        flow.remaining = float(self._table.rem[flow.fid])
        self._release_fid(flow)
        self._alloc.remove(flow)
        self._dirty = True
        self.perf.flows_cancelled += 1

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def current_rate(self, flow: Flow) -> float:
        """The flow's current max-min fair rate (refreshes if stale).

        A flow that is no longer active (finished or cancelled) reports
        0.0 without touching the solver — its old slot may already have
        been recycled by a younger flow, so the rate array must not be
        consulted for it (and a query must not trigger a spurious
        re-solve).  Membership in the active set is the guard.
        """
        if flow not in self._flows:
            return 0.0
        self._refresh_rates()
        return float(self._table.rate[flow.fid])

    # -- incremental state ---------------------------------------------------

    def _release_fid(self, flow: Flow) -> None:
        """Return the flow's slot to the free list, restoring sentinels."""
        fid = self._table.release(flow)
        self._entry_seq[fid] = -1
        if self._tie:
            self._tie.pop(fid, None)

    def _settle_all(self) -> None:
        """Credit the elapsed epoch interval to every flow's ``remaining``.

        Must run with the rates that governed ``[_settled_at, now]`` still
        in place — i.e. *before* a re-solve replaces them.
        """
        dt = self.now - self._settled_at
        self._settled_at = self.now
        if dt <= 0.0 or not self._table.flow_at:
            return
        t0 = wall_clock()
        n = self._table.settle(dt)
        self.perf.settles += 1
        self.perf.flows_settled += n
        self.perf.settle_wall += wall_clock() - t0

    def _refresh_rates(self) -> None:
        """Settle and re-solve when the flow set changed.

        An empty allocator dirty set means the last flow event removed a
        singleton component: the refresh still settles and opens a new
        epoch, but the solve would be a no-op and is skipped.  The
        re-rated slots wait in ``_pending_push`` for the loop's next
        :meth:`_push_changed`.
        """
        if not self._dirty:
            return
        # The old rates governed the interval up to ``now``; credit it
        # before they are replaced.
        self._settle_all()
        t0 = wall_clock()
        alloc = self._alloc
        perf = self.perf
        if alloc._dirty:
            alloc.solve(self._table.rate)
            perf.solve_iterations += alloc.last_iterations
            perf.component_solves += alloc.last_component_solves
            perf.component_flows_resolved += alloc.last_flows_resolved
            perf.vectorized_solves += alloc.last_vectorized_solves
            if alloc.last_component_size_max > perf.component_size_max:
                perf.component_size_max = alloc.last_component_size_max
            n_comp = alloc.component_count
            if n_comp > perf.components:
                perf.components = n_comp
            pending = self._pending_push
            for fid in alloc.last_changed:
                pending[fid] = None
        self._dirty = False
        perf.solves += 1
        perf.solve_wall += wall_clock() - t0

    def _push_changed(self) -> None:
        """Push a fresh ``(bound, time, flow_id, fid, seq)`` entry for
        every re-rated slot in ``_pending_push``.

        The entry stays valid for as long as the rate holds; a re-rated
        tie-group member goes back through the heap (its parked time is
        superseded).  When superseded entries dominate, the heap is
        rebuilt from its live entries — every pop and push would pay
        log(len) on garbage otherwise — and pops them in the same order,
        so the replay is unchanged.
        """
        t0 = wall_clock()
        heap = self._heap
        entry_seq = self._entry_seq
        tie = self._tie
        table = self._table
        flow_at = table.flow_at
        rem_item = table.rem.item
        rate_item = table.rate.item
        base = self._settled_at
        seq = self._push_seq
        push = heapq.heappush
        for fid in self._pending_push:
            f = flow_at[fid]
            if f is None:
                continue
            if tie:
                tie.pop(fid, None)
            rem = rem_item(fid)
            rate = rate_item(fid)
            entry_seq[fid] = seq
            push(heap, (base + (rem - 1.0) / rate, base + rem / rate, f.flow_id, fid, seq))
            seq += 1
        self._pending_push.clear()
        perf = self.perf
        perf.heap_pushes += seq - self._push_seq
        self._push_seq = seq
        if len(heap) > (len(self._flows) << 1) + 64:
            live = [e for e in heap if entry_seq[e[3]] == e[4]]
            perf.stale_pops += len(heap) - len(live)
            heap[:] = live
            heapq.heapify(heap)
        perf.scan_wall += wall_clock() - t0

    # -- event selection -----------------------------------------------------

    def _peek_completion_heap(self) -> tuple[float, Flow] | None:
        """Pick the next completion out of a tie window (the loop's slow path).

        :meth:`run` calls this when the tie group is non-empty or the
        heap's top cannot be shown to be the only candidate.  The anchor
        is the earliest parked time across the heap and the tie group.
        Starting from the tie group's earliest, every heap entry whose
        ``bound`` lies within the tie window of the running anchor is
        popped and parked in the tie group with its parked ``time``
        (lowering the anchor when that time is earlier).  The pops stop
        at the first bound beyond the window: every entry left behind
        has ``time ≥ bound`` beyond it too, so the anchor is the global
        earliest and every candidate has left the heap.  Heap ∪ tie group
        still holds the same parked times, so popping an entry whose own
        time lies beyond the window changes no later pick.  Every tie-group
        member parked within the window is re-predicted fresh and the
        winner snapped to the minimal ``flow_id`` — identical selection
        to draining the window out of a time-keyed heap, without the
        per-event pop/re-push of the whole wave.  Returns ``(time,
        flow)``, or None when no flow is active.
        """
        heap = self._heap
        entry_seq = self._entry_seq
        tie = self._tie
        tw = _PEEK_TIE_WINDOW
        t_anchor = min(tie.values()) if tie else math.inf
        horizon = t_anchor + tw * max(1.0, abs(t_anchor))
        stale = 0
        while heap and heap[0][0] <= horizon:
            _, park, _, fid, seq = heapq.heappop(heap)
            if entry_seq[fid] != seq:
                stale += 1
                continue
            entry_seq[fid] = -1
            tie[fid] = park
            if park < t_anchor:
                t_anchor = park
                horizon = t_anchor + tw * max(1.0, abs(t_anchor))
        if stale:
            self.perf.stale_pops += stale
        if t_anchor == math.inf:
            return None
        # Re-predict every candidate from the current settled state (a
        # parked prediction drifts from its fresh value only by the
        # settles' float rounding, far inside the window), then snap:
        # the winner is the minimal ``flow_id`` among candidates within
        # the window of the fresh minimum.  Symmetric workloads finish
        # whole waves of chunks at the *exact same* simulated instant,
        # and which prediction rounds lowest is float noise — snapping
        # makes the firing order (and with it every downstream RNG draw)
        # depend only on flow identity, matching the sweep's retire
        # order.
        table = self._table
        base = self._settled_at
        rem_item = table.rem.item
        rate_item = table.rate.item
        cands = [fid for fid, park in tie.items() if park <= horizon]
        t_min = math.inf
        for fid in cands:
            t_new = base + rem_item(fid) / rate_item(fid)
            tie[fid] = t_new
            if t_new < t_min:
                t_min = t_new
        snap = t_min + tw * max(1.0, abs(t_min))
        flow_at = table.flow_at
        best: Flow | None = None
        for fid in cands:
            if tie[fid] <= snap:
                flow = flow_at[fid]
                assert flow is not None
                if best is None or flow.flow_id < best.flow_id:
                    best = flow
        assert best is not None
        return (tie[best.fid], best)

    # -- main loop ----------------------------------------------------------------

    def _can_coalesce(self, t: float) -> bool:
        """May the next timer at exactly ``t`` join the current cycle?

        True only when a conservative bound proves the one-timer-per-event
        replay is unchanged: every active flow's remaining is still at
        least ``thresh`` bytes, where ``thresh/cap_max`` clears the tie
        window around ``t`` with margin.  Then no completion can be
        predicted at or before ``t`` (so event selection would pick the
        timer anyway) and no sweep in between can retire anything (so
        deferring the sweeps to the end of the wave is a no-op) —
        remaining-bytes bounds are immune to the rate *rises* the
        per-timer replay's mid-wave re-solves could produce, which
        per-rate retire bounds are not.  The floor is lowered by every
        flow start; when the cheap check fails it is refreshed once by a
        fused scan before giving up, so the O(n) scan runs at most once
        per denied wave, never per event.
        """
        cap = self._cap_max
        floor = self._scan_floor
        drain = (t - self._scan_at) * cap
        thresh = 4.0 * _PEEK_TIE_WINDOW * max(1.0, t) * cap
        if thresh < 1.0:
            thresh = 1.0
        if floor - drain > thresh + 1e-9 * (floor + drain):
            return True
        if not self._flows:
            return True
        table = self._table
        dt = self.now - self._settled_at
        rem, rate, scratch = table.views()
        if dt > 0.0:
            np.multiply(rate, dt, out=scratch)
            np.subtract(rem, scratch, out=scratch)
            floor = float(scratch.min())
        else:
            floor = float(rem.min())
        self._scan_floor = floor
        self._scan_at = self.now
        drain = (t - self.now) * cap
        return floor - drain > thresh + 1e-9 * (floor + drain)

    def _sweep(self) -> None:
        """Retire every flow the elapsed interval drained to (near) zero.

        The candidates are the heap entries whose ``bound`` has come due
        and every tie-group member (those have left the heap, so no bound
        guards them); together they include every flow within
        ``REMAINING_EPS``.  Each gets the exact drain check (``remaining −
        rate·dt``, the same IEEE operations the settle performs
        elementwise).  A surviving heap entry is re-pushed with its bound
        refreshed from the just-computed remaining and its parked time
        unchanged (its rate is unchanged — a re-rate would have superseded
        the entry); surviving tie-group members stay parked.  Retirements
        fire in ``flow_id`` order.
        """
        table = self._table
        now = self.now
        heap = self._heap
        entry_seq = self._entry_seq
        pop = heapq.heappop
        due: list[tuple[float, float, int, int, int]] = []
        stale = 0
        while heap and heap[0][0] <= now:
            entry = pop(heap)
            if entry_seq[entry[3]] == entry[4]:
                due.append(entry)
            else:
                stale += 1
        perf = self.perf
        perf.stale_pops += stale
        tie = self._tie
        if not due and not tie:
            return
        dt = now - self._settled_at
        rem_item = table.rem.item
        rate_item = table.rate.item
        flow_at = table.flow_at
        n_tie = len(tie)
        perf.sweep_checks += n_tie + len(due)
        hits: list[tuple[Flow, float]] = []
        for i, fid in enumerate([*tie, *(entry[3] for entry in due)]):
            current = rem_item(fid) - rate_item(fid) * dt if dt > 0.0 else rem_item(fid)
            if current <= REMAINING_EPS:
                hits.append((flow_at[fid], current))
            elif i >= n_tie:
                _, park, flow_id, _, seq = due[i - n_tie]
                # Computed from another settle point than ``park``, the
                # fresh bound is not ≤ it by rounding alone: clamp it.
                bound = now + (current - 1.0) / rate_item(fid)
                heapq.heappush(heap, (min(bound, park), park, flow_id, fid, seq))
                perf.heap_pushes += 1
        if not hits:
            return
        hits.sort(key=lambda item: item[0].flow_id)
        for flow, value in hits:
            if flow not in self._flows:  # a sweep callback cancelled it
                continue
            flow.remaining = max(0.0, float(value))
            table.rem[flow.fid] = flow.remaining
            self._finish(flow)

    def _finish(self, flow: Flow) -> None:
        callback = self._flows.pop(flow)
        self._release_fid(flow)
        self._alloc.remove(flow)
        self._dirty = True
        self.completed_flows += 1
        self.perf.flows_finished += 1
        callback(flow)

    def run(self, until: float | None = None, max_events: int = 10_000_000) -> float:
        """Run until no events remain, or until the next event lies
        beyond ``until``; returns the final clock.

        A bounded run processes every event at or before ``until``, then
        sets ``now = until`` and writes each active flow's drained
        remaining onto its ``Flow`` *without* settling the slot arrays,
        so resuming replays the unsplit run's floats exactly.  ``until``
        must not lie before ``now`` (or be NaN).

        One frame drives the whole run, and completion *cascades* (runs
        of consecutive completion events between timers) run back to
        back.  Each iteration:

        * settles and re-solves when the flow set changed
          (:meth:`_refresh_rates`).  The per-epoch whole-table settles
          run unmerged: each settle rounds ``rem − rate·dt`` once per
          epoch, so two epochs fused into one ``dt`` would produce
          different floats for *every* active flow, not just the
          cascading component's;
        * pushes a fresh entry for every re-rated flow
          (:meth:`_push_changed`; the bound refresh is load-bearing: a
          rate *increase* can pull a flow's true retire time earlier than
          its stale bound);
        * selects the event: inline when the tie group is empty and the
          heap top's children have bounds beyond the top's tie window
          (then every other entry's time is too, and the top is the only
          candidate), otherwise through :meth:`_peek_completion_heap`; a
          completion wins a tie against a timer;
        * processes it (:meth:`_finish` for a completion; a
          same-timestamp timer wave coalesces while
          :meth:`_can_coalesce` holds), then runs :meth:`_sweep` when a
          bound has come due or the tie group is non-empty.

        Only structures whose identity is stable across callbacks are
        cached (the table's slot list, the registry, the heap, the timer
        list); the slot *arrays* are re-fetched wherever they are read
        because ``FlowTable.acquire`` replaces them on growth.  The loop also
        maintains the cascade telemetry (``fastforward_cascades``,
        ``cascade_events``) and flushes its counters, even when a
        callback raises.
        """
        if until is not None:
            if math.isnan(until):
                raise ValueError("until must not be NaN")
            if until < self.now:
                raise ValueError(f"until={until!r} lies before now={self.now!r}")
        t0 = wall_clock()
        perf = self.perf
        table = self._table
        timers = self._timers
        heap = self._heap
        entry_seq = self._entry_seq
        tie = self._tie
        flow_at = table.flow_at
        flows = self._flows
        heappop = heapq.heappop
        inf = math.inf
        stop = inf if until is None else until
        tw = _PEEK_TIE_WINDOW
        events = 0
        run_len = 0
        heap_pushes = 0
        stale_pops = 0
        flow_events = 0
        timer_events = 0
        coalesced = 0
        casc_runs = 0
        casc_events = 0
        try:
            while True:
                if self._dirty:
                    self._refresh_rates()
                if self._pending_push:
                    self._push_changed()
                # -- event selection -----------------------------------------
                timer_t = timers[0][0] if timers else inf
                while heap:
                    top = heap[0]
                    if entry_seq[top[3]] == top[4]:
                        break
                    heappop(heap)
                    stale_pops += 1
                flow = None
                flow_t = inf
                if heap and not tie:
                    _, t_top, flowid_top, fid_top, seq_top = heap[0]
                    horizon = t_top + tw * max(1.0, abs(t_top))
                    n = len(heap)
                    second = heap[1][0] if n > 1 else inf
                    if n > 2 and heap[2][0] < second:
                        second = heap[2][0]
                    if second > horizon:
                        # Single candidate: re-predict the top fresh.  A
                        # winner's entry is consumed; one that waits
                        # behind a timer is replaced by the fresh one in
                        # one sift (every read of the heap is
                        # arrangement-independent).
                        base = self._settled_at
                        rem = table.rem.item(fid_top)
                        rate = table.rate.item(fid_top)
                        flow_t = base + rem / rate
                        flow = flow_at[fid_top]
                        if flow_t <= timer_t and flow_t <= stop:
                            heappop(heap)
                        else:
                            heapq.heapreplace(
                                heap,
                                (base + (rem - 1.0) / rate, flow_t, flowid_top, fid_top, seq_top),
                            )
                            heap_pushes += 1
                if flow is None and (heap or tie):
                    picked = self._peek_completion_heap()
                    if picked is not None:
                        flow_t, flow = picked
                if flow_t > stop and timer_t > stop:
                    self.now = stop
                    break
                if flow_t == inf and timer_t == inf:
                    break
                # -- process -------------------------------------------------
                processed = 1
                if flow_t <= timer_t:
                    assert flow is not None
                    self.now = flow_t
                    flow.remaining = 0.0
                    table.rem[flow.fid] = 0.0
                    self._finish(flow)
                    flow_events += 1
                    run_len += 1
                else:
                    self.now = timer_t
                    _, _, cb = heappop(timers)
                    cb()
                    timer_events += 1
                    if timers and timers[0][0] == timer_t:
                        # The pop budget is the heap size at wave start,
                        # so a callback endlessly rescheduling at the same
                        # instant still reaches the max_events guard.
                        budget = len(timers)
                        can = self._can_coalesce
                        while (
                            processed <= budget
                            and timers
                            and timers[0][0] == timer_t
                            and can(timer_t)
                        ):
                            _, _, cb2 = heappop(timers)
                            cb2()
                            timer_events += 1
                            processed += 1
                        if processed > 1:
                            coalesced += processed - 1
                    if run_len > 1:
                        casc_runs += 1
                        casc_events += run_len - 1
                    run_len = 0
                if flows and (tie or (heap and heap[0][0] <= self.now)):
                    self._sweep()
                self.events_processed += processed
                events += processed
                if events > max_events:
                    raise RuntimeError(
                        f"exceeded {max_events} events; runaway simulation?"
                    )
        finally:
            if run_len > 1:
                casc_runs += 1
                casc_events += run_len - 1
            perf.heap_pushes += heap_pushes
            perf.stale_pops += stale_pops
            perf.flow_events += flow_events
            perf.timer_events += timer_events
            perf.coalesced_events += coalesced
            perf.fastforward_cascades += casc_runs
            perf.cascade_events += casc_events
            perf.run_wall += wall_clock() - t0
        table.sync_remaining(flows, self.now - self._settled_at)
        return self.now
