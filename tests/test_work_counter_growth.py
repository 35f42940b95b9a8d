"""Work counters grow no faster across scales than the hot-path contracts allow.

The OPS301–OPS303 cost contracts (``repro.tools.config``) are static
claims about the simulator's and the matcher's hot paths.  This is their
dynamic counterpart.  It runs the Fig-7 single-data workload (10 chunks
per process, one process per node) at 128, 512 and 2048 nodes, twice:

* through the fluid simulator (``ParallelReadRun``, rank-interval
  assignment, seed 0) for the ``SimPerf`` counters;
* through the matcher (``graph_from_filesystem`` + ``optimize_single_data``,
  a cold round and a steady-state re-match, seed 1) for the ``SchedPerf``
  counters.

Each bound caps the growth of one counter per unit of work, as the ratio
of its largest to its smallest value over the three scales.  The
counters are deterministic, so the check needs no timing and no noise
floor.
"""

from __future__ import annotations

import math

import pytest

from repro.core import (
    ProcessPlacement,
    SchedPerf,
    clear_graph_cache,
    graph_from_filesystem,
    optimize_single_data,
    rank_interval_assignment,
    tasks_from_dataset,
)
from repro.dfs import ClusterSpec, DistributedFileSystem
from repro.simulate import ParallelReadRun, StaticSource
from repro.workloads import single_data_workload

SCALES = (128, 512, 2048)
CHUNKS_PER_PROCESS = 10

#: (work counter, normaliser or None, max growth, what the bound protects)
SIM_BOUNDS: tuple[tuple[str, str | None, float, str], ...] = (
    (
        "solve_iterations",
        "events",
        2.0,
        "water-filling solves per event stay bounded "
        "(ComponentAllocator.solve is per-dirty-component)",
    ),
    (
        "stale_pops",
        "events",
        2.0,
        "lazy completion-heap invalidation is amortized O(1)/event",
    ),
    (
        "component_size_mean",
        None,
        3.0,
        "dirty components stay O(deg), not O(n) "
        "(the add/remove O(|path|) contract)",
    ),
    (
        "heap_pushes",
        "events",
        2.0,
        "completion predictions stay O(changed flows)/event "
        "(the lazy heap is fed per re-rated flow, never rebuilt)",
    ),
    (
        "coalesced_events",
        "events",
        2.0,
        "same-timestamp timer waves keep coalescing as scale grows",
    ),
)
SCHED_BOUNDS: tuple[tuple[str, str | None, float, str], ...] = (
    (
        "augmentations",
        "tasks",
        2.0,
        "re-matching is amortized O(1) augmentations/task",
    ),
    (
        "bfs_phases",
        "solves",
        3.0,
        "Dinic phase count grows logarithmically, not linearly",
    ),
)


def _workload(m: int, seed: int):
    fs = DistributedFileSystem(ClusterSpec.homogeneous(m), seed=seed)
    data = single_data_workload(m, CHUNKS_PER_PROCESS)
    fs.put_dataset(data)
    return fs, ProcessPlacement.one_per_node(m), tasks_from_dataset(data)


def sim_row(m: int, seed: int = 0) -> dict[str, float]:
    fs, placement, tasks = _workload(m, seed)
    run = ParallelReadRun(
        fs,
        placement,
        tasks,
        StaticSource(rank_interval_assignment(len(tasks), m)),
        seed=seed,
    )
    assert run.run().tasks_completed == len(tasks)
    return {**run.sim.perf.snapshot(), "events": run.sim.events_processed}


def sched_row(m: int, seed: int = 1) -> dict[str, float]:
    fs, placement, tasks = _workload(m, seed)
    perf = SchedPerf()
    clear_graph_cache()
    for _ in range(2):  # a cold round, then a steady-state re-match
        graph = graph_from_filesystem(fs, tasks, placement, perf=perf)
        optimize_single_data(graph, seed=seed, perf=perf)
    return {**perf.snapshot(), "tasks": len(tasks)}


def growth_violation(
    rows: list[dict[str, float]], bound: tuple[str, str | None, float, str]
) -> str | None:
    """Why ``rows`` break ``bound``, or None when they keep it."""
    work, per, max_growth, note = bound
    values = [row[work] / row[per] if per else row[work] for row in rows]
    low, high = min(values), max(values)
    if low > 0:
        growth = high / low
    else:
        growth = math.inf if high > 0 else 1.0
    if growth <= max_growth:
        return None
    unit = f"{work}/{per}" if per else work
    return (
        f"{unit} grows {growth:.2f}x across scales ({low:.3g} -> {high:.3g}), "
        f"over its {max_growth:.1f}x bound: {note}"
    )


@pytest.fixture(scope="module")
def sim_rows():
    return [sim_row(m) for m in SCALES]


@pytest.fixture(scope="module")
def sched_rows():
    return [sched_row(m) for m in SCALES]


def _check(rows, bound):
    work, per = bound[0], bound[1]
    # a counter that reads 0 somewhere bounds nothing there
    for row in rows:
        assert row[work] > 0, f"{work} is 0 at one scale: {row}"
        assert per is None or row[per] > 0, f"{per} is 0 at one scale: {row}"
    violation = growth_violation(rows, bound)
    assert violation is None, violation


@pytest.mark.parametrize("bound", SIM_BOUNDS, ids=lambda b: b[0])
def test_sim_counter_growth_within_bound(sim_rows, bound):
    _check(sim_rows, bound)


@pytest.mark.parametrize("bound", SCHED_BOUNDS, ids=lambda b: b[0])
def test_sched_counter_growth_within_bound(sched_rows, bound):
    _check(sched_rows, bound)


class TestGrowthCheck:
    """The check itself, on synthetic rows."""

    BOUND = SIM_BOUNDS[0]  # solve_iterations/events <= 2.0x

    def test_bounded_growth_passes(self):
        rows = [
            {"events": 100, "solve_iterations": 110},
            {"events": 1000, "solve_iterations": 1300},
        ]
        assert growth_violation(rows, self.BOUND) is None

    def test_super_linear_growth_fails_naming_counter_and_bound(self):
        rows = [
            {"events": 100, "solve_iterations": 100},
            {"events": 1000, "solve_iterations": 5000},
        ]
        message = growth_violation(rows, self.BOUND)
        assert message is not None
        assert "solve_iterations/events grows 5.00x" in message
        assert "2.0x bound" in message
        with pytest.raises(AssertionError, match="solve_iterations/events"):
            _check(rows, self.BOUND)

    def test_counter_growing_from_zero_fails(self):
        rows = [
            {"events": 100, "solve_iterations": 0},
            {"events": 1000, "solve_iterations": 10},
        ]
        assert growth_violation(rows, self.BOUND) is not None
