"""Instrumentation counters for the simulator hot path.

Every :class:`~repro.simulate.engine.Simulation` owns a :class:`SimPerf`;
the engine and the allocators bump its counters as they work.  The
counters are plain ints/floats (negligible overhead) and answer the
questions a performance regression hunt starts with: how many rate
re-solves ran, how many water-filling iterations they took, how many
components they touched, how the lazy completion heap behaved (pushes,
stale pops), and how much wall time each phase
consumed.

``repro.metrics`` re-exports :class:`SimPerf` and
:func:`repro.metrics.export.perf_summary`; the runner attaches a snapshot
to every :class:`~repro.simulate.runner.RunResult` so benchmarks can
report solve counts next to event throughput (see
``benchmarks/bench_sim_performance.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

#: The one sanctioned wall-clock source in the simulation layers.
#: Simulation code must never read wall time directly (enforced by
#: opass-lint rule OPS002) — results must depend only on the simulated
#: clock.  Instrumentation that genuinely wants wall time (phase
#: timings below) reads it through this alias.
wall_clock = time.perf_counter


@dataclass
class SimPerf:
    """Counters and per-phase wall clocks for one simulation."""

    #: allocator runs (rate re-solves)
    solves: int = 0
    #: total water-filling iterations across all solves
    solve_iterations: int = 0
    #: entries pushed onto the lazy completion heap: re-rated flows,
    #: re-predicted tops that wait behind a timer, sweep re-queues
    heap_pushes: int = 0
    #: superseded heap entries discarded on pop or by compaction
    stale_pops: int = 0
    #: peak connected-component count of the flow–resource graph
    components: int = 0
    #: per-component water-filling runs (component allocator only)
    component_solves: int = 0
    #: largest component (in flows) any single solve touched
    component_size_max: int = 0
    #: total flows whose rate was re-solved across all component solves
    component_flows_resolved: int = 0
    #: component solves that ran the numpy water-filling kernel
    #: (components of ≥ VECTOR_MIN_FLOWS flows; see repro.simulate.vectorized)
    vectorized_solves: int = 0
    #: completion cascades: maximal stretches of ≥ 2 consecutive
    #: completion events the engine loop processed with no timer between
    fastforward_cascades: int = 0
    #: completion events beyond the first inside those runs
    cascade_events: int = 0
    #: settle passes (bulk remaining updates at rate-epoch boundaries)
    settles: int = 0
    #: flow-remaining updates performed by those settle passes
    flows_settled: int = 0
    #: events by kind
    flow_events: int = 0
    timer_events: int = 0
    #: events beyond the first drained by a coalesced same-timestamp
    #: timer wave (one settle/solve cycle instead of one per event)
    coalesced_events: int = 0
    #: flow lifecycle
    flows_started: int = 0
    flows_finished: int = 0
    flows_cancelled: int = 0
    #: wall seconds per phase
    solve_wall: float = 0.0
    settle_wall: float = 0.0
    scan_wall: float = 0.0
    #: wall seconds inside Simulation.run end to end; the derived
    #: ``event_loop_wall`` residual (run minus the instrumented phases)
    #: is the per-event Python bookkeeping this engine exists to shrink
    run_wall: float = 0.0

    _extra: dict[str, float] = field(default_factory=dict, repr=False)

    def snapshot(self) -> dict[str, float]:
        """A plain-dict copy, JSON-ready (for RunResult / BENCH files).

        Emits the counter fields plus the derived
        ``component_size_mean``.
        """
        solves = self.component_solves
        out = {
            "solves": self.solves,
            "solve_iterations": self.solve_iterations,
            "heap_pushes": self.heap_pushes,
            "stale_pops": self.stale_pops,
            "components": self.components,
            "component_solves": self.component_solves,
            "component_size_max": self.component_size_max,
            "component_size_mean": (
                self.component_flows_resolved / solves if solves else 0.0
            ),
            "component_flows_resolved": self.component_flows_resolved,
            "vectorized_solves": self.vectorized_solves,
            # no solve path dispatches in parallel or replays a memoised
            # solve; perfbench reads both keys
            "parallel_solves": 0,
            "memo_hits": 0,
            "fastforward_cascades": self.fastforward_cascades,
            "cascade_events": self.cascade_events,
            "settles": self.settles,
            "flows_settled": self.flows_settled,
            "flow_events": self.flow_events,
            "timer_events": self.timer_events,
            "coalesced_events": self.coalesced_events,
            "flows_started": self.flows_started,
            "flows_finished": self.flows_finished,
            "flows_cancelled": self.flows_cancelled,
            "solve_wall": self.solve_wall,
            "settle_wall": self.settle_wall,
            "scan_wall": self.scan_wall,
            "run_wall": self.run_wall,
            "event_loop_wall": self.event_loop_wall,
        }
        out.update(self._extra)
        return out

    def reset(self) -> None:
        """Zero every counter (reuse one simulation across phases)."""
        self.__init__()

    @property
    def events(self) -> int:
        return self.flow_events + self.timer_events

    @property
    def event_loop_wall(self) -> float:
        """Residual engine overhead: run wall minus the instrumented
        solve/settle/scan phases.  Clamped at zero — phase clocks on
        loaded runners can jitter past the enclosing run."""
        residual = (
            self.run_wall - self.solve_wall - self.settle_wall - self.scan_wall
        )
        return residual if residual > 0.0 else 0.0
