"""Instrumentation counters for the scheduler (matching) hot path.

The PR-1/PR-4 work made the fluid simulator fast enough that end-to-end
experiment wall time is dominated by the *scheduler* side: building the
process↔task locality graph from the NameNode snapshot and solving the
max-flow / min-cost-flow matchings.  :class:`SchedPerf` is the
scheduler-side sibling of :class:`repro.simulate.perf.SimPerf`: plain
int/float counters the matching kernels bump as they work, answering the
questions a matching-performance regression hunt starts with — how long
graph builds and solves took, how often the snapshot→graph cache hit,
how many augmenting paths the flow solvers walked, and how often a
min-cost re-solve reused its Johnson potentials instead of re-running
the Bellman–Ford bootstrap.

Every matching entry point accepts an optional ``perf`` keyword; pass
one :class:`SchedPerf` through a whole experiment to aggregate.
``repro.metrics`` re-exports :class:`SchedPerf`, and
:class:`~repro.simulate.runner.RunResult` carries an optional
``sched_perf`` snapshot next to ``sim_perf`` so benchmarks can report
matching cost beside simulated I/O time (see
``benchmarks/bench_sched_performance.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

#: The one sanctioned wall-clock source in the core (scheduler) layer.
#: Matching code must never read wall time directly (opass-lint OPS002):
#: assignments must be functions of the layout and the seed alone.  The
#: perf instrumentation below is the exception, and reads time through
#: this alias only.
wall_clock = time.perf_counter


@dataclass
class SchedPerf:
    """Counters and per-phase wall clocks for the matching pipeline."""

    #: locality-graph constructions (cache misses + direct builds)
    graph_builds: int = 0
    #: edges written into locality-graph CSRs
    graph_edges: int = 0
    #: snapshot→graph cache outcomes (``graph_from_filesystem``)
    cache_hits: int = 0
    cache_misses: int = 0
    #: matching solves (max-flow or min-cost-flow runs)
    solves: int = 0
    #: flow-augmenting paths walked (Dinic, Edmonds–Karp and SSP rounds)
    augmentations: int = 0
    #: Dinic level-graph (BFS phase) constructions
    bfs_phases: int = 0
    #: single-data matchings answered from the per-graph flow memo (no
    #: network build, no solver run)
    solve_replays: int = 0
    #: min-cost bootstraps by kind: Bellman–Ford (negative costs) vs the
    #: Dijkstra shortcut (all costs non-negative; identical distances)
    bellman_ford_runs: int = 0
    dijkstra_bootstraps: int = 0
    #: solves that reused the previous solve's Johnson potentials
    potential_reuses: int = 0
    #: delta re-solves (``MinCostFlowNetwork.resolve`` after growth)
    resolves: int = 0
    #: wall seconds per phase
    graph_build_wall: float = 0.0
    solve_wall: float = 0.0

    _extra: dict[str, float] = field(default_factory=dict, repr=False)

    def snapshot(self) -> dict[str, float]:
        """A plain-dict copy, JSON-ready (for RunResult / BENCH files)."""
        out: dict[str, float] = {
            "graph_builds": self.graph_builds,
            "graph_edges": self.graph_edges,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "solves": self.solves,
            "augmentations": self.augmentations,
            "bfs_phases": self.bfs_phases,
            "solve_replays": self.solve_replays,
            "bellman_ford_runs": self.bellman_ford_runs,
            "dijkstra_bootstraps": self.dijkstra_bootstraps,
            "potential_reuses": self.potential_reuses,
            "resolves": self.resolves,
            "graph_build_wall": self.graph_build_wall,
            "solve_wall": self.solve_wall,
        }
        out.update(self._extra)
        return out

    def reset(self) -> None:
        """Zero every counter (reuse one instance across phases)."""
        self.__init__()  # type: ignore[misc]
