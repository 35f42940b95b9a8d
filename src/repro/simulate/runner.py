"""Execute a parallel read workload on the simulated cluster.

:class:`ParallelReadRun` drives a set of parallel processes (one per MPI
rank, each bound to a cluster node) through a stream of data-processing
tasks.  For every task the process reads the task's input chunks one after
another through the file system's read path (local-first, policy-chosen
remote), optionally spends compute time, then takes its next task.

Task streams come from a :class:`TaskSource`:

* :class:`StaticSource` — a precomputed assignment (rank-interval baseline
  or an Opass matching); supports barrier-synchronised rounds, which is how
  ParaView's rendering pipeline consumes data;
* any object with ``next_task(rank)`` — e.g.
  :class:`repro.core.DefaultDynamicPolicy` or
  :class:`repro.core.DynamicPlan` for master/worker execution.

The run records a :class:`ReadRecord` per chunk read ("we record the I/O
time taken to read each chunk file") and per-node served bytes (the paper's
monitor), which together regenerate Figures 1 and 7–12.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from ..core.assignment import Assignment
from ..core.bipartite import ProcessPlacement
from ..core.perf import SchedPerf
from ..core.tasks import Task, Wait
from ..dfs.chunk import ChunkId
from ..dfs.filesystem import DistributedFileSystem
from .engine import Simulation
from .iomodel import read_cost
from .resources import cluster_resources

logger = logging.getLogger(__name__)

ComputeModel = Callable[[int, int, np.random.Generator], float]


__all__ = [
    "ComputeModel",
    "ParallelReadRun",
    "ReadRecord",
    "RunResult",
    "StaticSource",
    "TaskSource",
    "Wait",
]


class TaskSource(Protocol):
    """Anything that hands tasks to idle processes."""

    def next_task(self, rank: int) -> "int | Wait | None": ...


class StaticSource:
    """A fixed per-rank task list (static SPMD execution)."""

    def __init__(self, assignment: Assignment) -> None:
        self.num_processes = assignment.num_processes
        self._queues = {
            rank: deque(tasks) for rank, tasks in assignment.tasks_of.items()
        }

    def next_task(self, rank: int) -> int | None:
        queue = self._queues.get(rank)
        if not queue:
            return None
        return queue.popleft()

    def remaining(self, rank: int) -> int:
        return len(self._queues.get(rank, ()))


# Not frozen: one record is appended per completed read on the hot
# path, and frozen-dataclass construction routes all nine fields
# through object.__setattr__ (~4x the cost).  Treat as immutable.
@dataclass(slots=True)
class ReadRecord:
    """One chunk read, fully timed."""

    seq: int
    rank: int
    task_id: int
    chunk: ChunkId
    server_node: int
    reader_node: int
    local: bool
    issue_time: float
    end_time: float

    @property
    def duration(self) -> float:
        return self.end_time - self.issue_time


@dataclass
class RunResult:
    """Everything a figure needs from one workload execution."""

    records: list[ReadRecord]
    makespan: float
    bytes_served: dict[int, int]
    local_bytes: int
    remote_bytes: int
    tasks_completed: int
    read_retries: int = 0
    #: simulator instrumentation snapshot (solve counts, heap stats, phase
    #: walls) — see :class:`repro.simulate.perf.SimPerf`.
    sim_perf: dict[str, float] | None = None
    #: scheduler-side instrumentation snapshot (graph builds, matching
    #: solves, cache hits) — see :class:`repro.core.perf.SchedPerf`.
    sched_perf: dict[str, float] | None = None

    def durations(self) -> np.ndarray:
        """Chunk read times ordered by completion (Figure 7(c)'s series)."""
        ordered = sorted(self.records, key=lambda r: (r.end_time, r.seq))
        return np.array([r.duration for r in ordered])

    def io_stats(self) -> dict[str, float]:
        d = self.durations()
        if d.size == 0:
            return {"avg": 0.0, "max": 0.0, "min": 0.0, "std": 0.0}
        return {
            "avg": float(d.mean()),
            "max": float(d.max()),
            "min": float(d.min()),
            "std": float(d.std()),
        }

    def served_bytes_array(self, num_nodes: int) -> np.ndarray:
        out = np.zeros(num_nodes, dtype=np.int64)
        for node, b in self.bytes_served.items():
            out[node] = b
        return out

    @property
    def locality_fraction(self) -> float:
        total = self.local_bytes + self.remote_bytes
        return self.local_bytes / total if total else 1.0


@dataclass(slots=True)
class _Outstanding:
    """One read in flight (latency phase or transfer phase)."""

    chunk_id: ChunkId
    plan: object  # ReadPlan; typed loosely to avoid a circular import
    issue_time: float
    flow: object | None = None  # Flow once the transfer started
    retries: int = 0


@dataclass(slots=True)
class _ProcState:
    rank: int
    node: int
    current_task: int | None = None
    pending_chunks: deque[ChunkId] = field(default_factory=deque)
    outstanding: _Outstanding | None = None
    done: bool = False


class ParallelReadRun:
    """One experiment: processes × tasks × file system × simulator."""

    def __init__(
        self,
        fs: DistributedFileSystem,
        placement: ProcessPlacement,
        tasks: list[Task],
        source: TaskSource,
        *,
        compute_time: ComputeModel | float | None = None,
        barrier: bool = False,
        barrier_compute_time: float = 0.0,
        seed: int | np.random.Generator = 0,
        sim: Simulation | None = None,
        sched_perf: SchedPerf | None = None,
    ) -> None:
        """
        Parameters
        ----------
        source:
            Hands each idle rank its next task.  A :class:`StaticSource`
            must hold one task list per placement process; any other
            count raises ``ValueError``.
        compute_time:
            Per-task compute after its reads finish: a constant, a callable
            ``(rank, task_id, rng) → seconds``, or None for pure I/O.
        barrier:
            Synchronise processes after every task (round), as ParaView's
            rendering steps do.  Requires a :class:`StaticSource`.
        barrier_compute_time:
            Extra time spent at each barrier after all reads complete (e.g.
            the render/composite phase of a ParaView step).
        sim:
            Share an existing simulation (multi-tenant scenarios: several
            applications and/or background traffic on one cluster clock).
            The caller is then responsible for registering the cluster's
            resources once and for driving the clock — use
            :meth:`prepare`/:meth:`collect` instead of :meth:`run`.
        sched_perf:
            Scheduler-side counters accumulated while *building* the plan
            this run executes (graph builds, matching solves, cache hits).
            When given, a snapshot is attached to the
            :class:`RunResult` as ``sched_perf``.
        """
        if barrier and not isinstance(source, StaticSource):
            raise ValueError("barrier mode requires a StaticSource")
        if (
            isinstance(source, StaticSource)
            and source.num_processes != placement.num_processes
        ):
            raise ValueError(
                f"assignment is for {source.num_processes} processes but the "
                f"placement runs {placement.num_processes}"
            )
        self.fs = fs
        self.placement = placement
        self.tasks = {t.task_id: t for t in tasks}
        self.source = source
        self.barrier = barrier
        self.barrier_compute_time = barrier_compute_time
        self.rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )
        if compute_time is None:
            self._compute: ComputeModel = lambda rank, task, rng: 0.0
        elif callable(compute_time):
            self._compute = compute_time
        else:
            constant = float(compute_time)
            if constant < 0:
                raise ValueError("compute_time must be non-negative")
            self._compute = lambda rank, task, rng: constant

        self.sched_perf = sched_perf
        self._owns_sim = sim is None
        self.sim = Simulation() if sim is None else sim
        if self._owns_sim:
            self.sim.add_resources(cluster_resources(fs.spec))
        self._procs = [
            _ProcState(rank=r, node=placement.node_of(r))
            for r in range(placement.num_processes)
        ]
        self._records: list[ReadRecord] = []
        self._seq = 0
        self._local_bytes = 0
        self._remote_bytes = 0
        self._tasks_completed = 0
        self.read_retries = 0
        self.waits = 0
        self._last_activity = 0.0
        self._served_baseline = dict(fs.bytes_served_per_node())
        # server*num_nodes + reader -> (latency, path, rate_cap).  The
        # cluster spec is frozen, so a read's cost depends only on the
        # endpoint pair (size comes from the chunk itself); the flat int
        # key probes cheaper than a tuple at the large sweep scales.
        self._cost_cache: dict[
            int, tuple[float, tuple[str, ...], float | None]
        ] = {}
        self._cost_stride = fs.spec.num_nodes
        # Barrier bookkeeping.
        self._round_waiting = 0
        self._round_participants = 0

    # -- process state machine ---------------------------------------------------

    def _begin_task(self, state: _ProcState) -> None:
        task_id = self.source.next_task(state.rank)
        if task_id is None:
            state.done = True
            if self.barrier and state.current_task is None:
                self._barrier_arrive()
            return
        if isinstance(task_id, Wait):
            if self.barrier:
                raise ValueError("Wait responses are not allowed in barrier mode")
            self.waits += 1
            self.sim.schedule(task_id.seconds, lambda: self._begin_task(state))
            return
        task = self.tasks[task_id]
        state.current_task = task_id
        state.pending_chunks = deque(task.inputs)
        self._issue_next_chunk(state)

    def _issue_next_chunk(self, state: _ProcState) -> None:
        assert state.current_task is not None
        if not state.pending_chunks:
            self._finish_task(state)
            return
        chunk_id = state.pending_chunks.popleft()
        self._start_read(state, chunk_id, issue_time=self.sim.now, retries=0)

    def _start_read(
        self, state: _ProcState, chunk_id: ChunkId, *, issue_time: float, retries: int
    ) -> None:
        """Resolve and begin one chunk read (fresh attempt or retry)."""
        plan = self.fs.resolve_read(chunk_id, state.node)
        key = plan.server_node * self._cost_stride + plan.reader_node
        cached = self._cost_cache.get(key)
        if cached is None:
            cost = read_cost(plan, self.fs.spec)
            cached = (cost.latency, cost.path, cost.rate_cap)
            self._cost_cache[key] = cached
        latency, path, rate_cap = cached
        size = plan.chunk.size
        outstanding = _Outstanding(
            chunk_id=chunk_id, plan=plan, issue_time=issue_time, retries=retries
        )
        state.outstanding = outstanding

        def after_latency() -> None:
            # A node failure may have replaced this attempt while the read
            # was still positioning; the stale closure must not start a
            # transfer from the dead server.
            if state.outstanding is not outstanding:
                return
            outstanding.flow = self.sim.start_flow(
                size,
                path,
                lambda _flow: self._chunk_done(state, outstanding),
                rate_cap=rate_cap,
            )

        self.sim.schedule(latency, after_latency)

    def _chunk_done(self, state: _ProcState, outstanding: _Outstanding) -> None:
        assert state.current_task is not None
        plan = outstanding.plan
        state.outstanding = None
        # Locality accounting counts completed reads only (an attempt
        # aborted by a node failure contributes no delivered bytes).
        local = plan.reader_node == plan.server_node
        if local:
            self._local_bytes += plan.chunk.size
        else:
            self._remote_bytes += plan.chunk.size
        now = self.sim.now
        self._records.append(
            ReadRecord(
                self._seq,
                state.rank,
                state.current_task,
                plan.chunk.id,
                plan.server_node,
                plan.reader_node,
                local,
                outstanding.issue_time,
                now,
            )
        )
        self._seq += 1
        self._last_activity = now
        self._issue_next_chunk(state)

    # -- failure injection ---------------------------------------------------

    def fail_node(self, node_id: int) -> None:
        """Kill a storage node now: decommission it and retry affected reads.

        Reads being served by the dead node — still positioning or already
        transferring — are aborted and re-resolved against the surviving
        replicas (fresh latency, fresh serving choice).  The dead node's
        partially-transferred bytes remain in its serve counters, as a real
        monitor would have recorded them.
        """
        self.fs.cluster.decommission(node_id)
        for state in self._procs:
            out = state.outstanding
            if out is None or out.plan.server_node != node_id:
                continue
            if out.flow is not None:
                self.sim.cancel_flow(out.flow)
            self.read_retries += 1
            logger.info(
                "node %d failed: retrying read of %s for rank %d (attempt %d)",
                node_id, out.chunk_id, state.rank, out.retries + 2,
            )
            self._start_read(
                state, out.chunk_id, issue_time=out.issue_time,
                retries=out.retries + 1,
            )

    def recover_node(self, node_id: int) -> None:
        """Bring a node back (it rejoins empty-handed for new resolutions)."""
        self.fs.cluster.recommission(node_id)

    def _finish_task(self, state: _ProcState) -> None:
        task_id = state.current_task
        assert task_id is not None
        state.current_task = None
        self._tasks_completed += 1
        delay = self._compute(state.rank, task_id, self.rng)
        if delay < 0:
            raise ValueError("compute model returned negative time")
        if delay > 0:

            def proceed() -> None:
                self._last_activity = self.sim.now
                if self.barrier:
                    self._barrier_arrive()
                else:
                    self._begin_task(state)

            self.sim.schedule(delay, proceed)
        else:
            # Inline `proceed` — the zero-compute case is the hot path
            # and must not pay a closure per task.
            self._last_activity = self.sim.now
            if self.barrier:
                self._barrier_arrive()
            else:
                self._begin_task(state)

    # -- barrier rounds -----------------------------------------------------------

    def _barrier_arrive(self) -> None:
        self._round_waiting += 1
        if self._round_waiting >= self._round_participants:
            # The render/composite phase only follows rounds that actually
            # processed data; when every process arrived because its queue
            # was empty there is no frame to render.
            all_done = all(p.done for p in self._procs)
            delay = 0.0 if all_done else self.barrier_compute_time

            def release() -> None:
                self._last_activity = self.sim.now
                self._start_round()

            if delay > 0:
                self.sim.schedule(delay, release)
            else:
                release()

    def _start_round(self) -> None:
        self._round_waiting = 0
        live = [p for p in self._procs if not p.done]
        self._round_participants = len(live)
        if not live:
            return
        for state in live:
            self._begin_task(state)
        # Processes whose queues just ran dry flagged themselves done and
        # arrived at the barrier; if *all* did, the run is over.

    # -- entry point ----------------------------------------------------------------

    def prepare(self) -> None:
        """Enqueue the initial work without driving the clock.

        For multi-tenant scenarios: prepare every run (and any background
        traffic) on the shared simulation, call ``sim.run()`` once, then
        :meth:`collect` each run's results.
        """
        if self.barrier:
            self._start_round()
        else:
            for state in self._procs:
                self._begin_task(state)

    def collect(self) -> RunResult:
        """Gather results after the (possibly shared) simulation finished."""
        if any(not p.done or p.current_task is not None for p in self._procs):
            raise RuntimeError("collect() before all processes finished")
        return self._build_result()

    def run(self) -> RunResult:
        self.prepare()
        self.sim.run()
        return self._build_result()

    def _build_result(self) -> RunResult:
        served_now = self.fs.bytes_served_per_node()
        delta = {
            node: served_now[node] - self._served_baseline.get(node, 0)
            for node in served_now
        }
        return RunResult(
            records=self._records,
            makespan=self._last_activity,
            bytes_served=delta,
            local_bytes=self._local_bytes,
            remote_bytes=self._remote_bytes,
            tasks_completed=self._tasks_completed,
            read_retries=self.read_retries,
            sim_perf=self.sim.perf.snapshot(),
            sched_perf=(
                self.sched_perf.snapshot()
                if self.sched_perf is not None
                else None
            ),
        )
