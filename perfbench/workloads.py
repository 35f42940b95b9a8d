"""The benchmark's four workloads, composed from the library's public API.

Each workload mirrors one public experiment call step by step, so that the
benchmark can time every layer boundary from its own code, and its records
must hash to the same digest as that call (:meth:`Workload.reference`):

* ``fig7-single``   — :func:`repro.experiments.run_single_data_comparison`
* ``fig9-multi``    — :func:`repro.experiments.run_multi_data_comparison`
* ``fig11-dynamic`` — :func:`repro.experiments.run_dynamic_comparison`
* ``ingest-write``  — :class:`repro.simulate.DatasetIngest`

A workload is split into :meth:`Workload.setup` (file system and dataset
layout, timed as part of ``setup_s``) and :meth:`Workload.execute`
(everything up to fully assembled results, timed as ``wall_s``).  Output
checks run after the timed region.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Any

from repro.core import (
    DefaultDynamicPolicy,
    ProcessPlacement,
    SchedPerf,
    graph_from_filesystem,
    locality_fraction,
    optimize_multi_data,
    optimize_single_data,
    plan_dynamic,
    rank_interval_assignment,
    tasks_from_dataset,
    tasks_from_datasets,
)
from repro.dfs import (
    ClusterSpec,
    DistributedFileSystem,
    HdfsWriterLocalPlacement,
    uniform_dataset,
)
from repro.experiments import (
    run_dynamic_comparison,
    run_multi_data_comparison,
    run_single_data_comparison,
)
from repro.metrics import ServeMonitor
from repro.parallel import irregular_compute_model, run_master_worker
from repro.simulate import DatasetIngest, ParallelReadRun, SimPerf, StaticSource
from repro.workloads import gene_database, multi_input_datasets, single_data_workload

#: SimPerf snapshot keys that are not counters: maxima and derived values.
_SIM_MAX_KEYS = ("components", "component_size_max")
_SIM_DERIVED_KEYS = ("component_size_mean", "event_loop_wall")


@dataclass
class Outcome:
    """What one execution produced, for metrics and output checks."""

    #: records of every simulated run, in run order
    runs: list[list[Any]]
    #: chunk reads plus chunk writes the workload issued
    ops_expected: int
    #: one SimPerf snapshot per simulation
    sim_perfs: list[dict[str, float]]
    #: paper figures computed during result assembly
    figures: dict[str, float]
    #: the library's result object of every simulated run
    results: list[Any] = field(default_factory=list)
    steals: int = 0


@dataclass
class State:
    """What set-up hands to the timed execution."""

    fs: DistributedFileSystem
    datasets: list[Any]
    seed: int


def record_key(record: Any) -> tuple[Any, ...]:
    """The identity of one read or write record: who, what, where, when."""
    chunk = (record.chunk.file, record.chunk.index)
    if hasattr(record, "pipeline"):
        return (
            record.seq, record.writer_rank, record.writer_node, chunk,
            record.pipeline, record.issue_time, record.end_time,
        )
    return (
        record.seq, record.rank, record.task_id, chunk, record.server_node,
        record.reader_node, record.issue_time, record.end_time,
    )


def digest(runs: list[list[Any]]) -> str:
    """SHA-256 over every record of every run (floats by exact repr)."""
    h = hashlib.sha256()
    for records in runs:
        h.update("\n".join(repr(record_key(r)) for r in records).encode())
        h.update(b"\x00")
    return h.hexdigest()


def sum_sim_perf(snapshots: list[dict[str, float]]) -> dict[str, float]:
    """Counters summed over simulations; maxima kept; the mean re-derived."""
    out: dict[str, float] = {}
    for snap in snapshots:
        for key, value in snap.items():
            if key in _SIM_MAX_KEYS:
                out[key] = max(out.get(key, 0), value)
            elif key not in _SIM_DERIVED_KEYS:
                out[key] = out.get(key, 0) + value
    solves = out.get("component_solves", 0)
    out["component_size_mean"] = (
        out.get("component_flows_resolved", 0) / solves if solves else 0.0
    )
    return out


def zero_counters(sim: dict[str, float], sched: dict[str, float]) -> list[str]:
    """Every SimPerf/SchedPerf field that stayed zero, prefixed by class."""
    zeros = []
    for prefix, cls, values in (("SimPerf", SimPerf, sim), ("SchedPerf", SchedPerf, sched)):
        for f in dataclasses.fields(cls):
            if not f.name.startswith("_") and not values.get(f.name, 0):
                zeros.append(f"{prefix}.{f.name}")
    return zeros


def byte_conservation(fs: DistributedFileSystem, result: Any) -> bool:
    """Served-byte deltas equal the bytes the run's records read, per node."""
    read_by_server: dict[int, int] = {}
    local = remote = 0
    for r in result.records:
        size = fs.chunk(r.chunk).size
        read_by_server[r.server_node] = read_by_server.get(r.server_node, 0) + size
        if r.server_node == r.reader_node:
            local += size
        else:
            remote += size
    served = {n: b for n, b in result.bytes_served.items() if b}
    return (
        served == read_by_server
        and local == result.local_bytes
        and remote == result.remote_bytes
    )


class Workload:
    """One named workload: set-up, timed execution, public reference."""

    name = ""

    def setup(self, seed: int) -> State:
        raise NotImplementedError

    def execute(self, state: State, tr: Any, perf: SchedPerf) -> Outcome:
        raise NotImplementedError

    def reference(self, seed: int) -> list[list[Any]]:
        """Records of the matching public call for the same seed."""
        raise NotImplementedError

    def check(self, state: State, outcome: Outcome) -> dict[str, bool]:
        """Output checks beyond the digest, run after the timed region:
        byte conservation of every read run plus the paper's claims."""
        return {
            "bytes_conserved": all(
                byte_conservation(state.fs, r) for r in outcome.results
            ),
            "io_improvement_gt_1": outcome.figures["io_improvement"] > 1.0,
        }


class Fig7Single(Workload):
    name = "fig7-single"
    NODES = 512
    CHUNKS_PER_PROCESS = 10

    def setup(self, seed: int) -> State:
        fs = DistributedFileSystem(ClusterSpec.homogeneous(self.NODES), seed=seed)
        data = single_data_workload(self.NODES, self.CHUNKS_PER_PROCESS)
        fs.put_dataset(data)
        return State(fs=fs, datasets=[data], seed=seed)

    def execute(self, state: State, tr: Any, perf: SchedPerf) -> Outcome:
        fs, seed = state.fs, state.seed
        with tr.span("core.plan"):
            placement = ProcessPlacement.one_per_node(self.NODES)
            tasks = tasks_from_dataset(state.datasets[0])
            baseline = rank_interval_assignment(len(tasks), self.NODES)
        with tr.span("assemble"):
            monitor = ServeMonitor(fs)
            monitor.start()
        base = ParallelReadRun(
            fs, placement, tasks, StaticSource(baseline), seed=seed
        ).run()
        with tr.span("assemble"):
            base_served = monitor.served_mb_array()
            monitor.start()
        with tr.span("core.graph_build"):
            graph = graph_from_filesystem(fs, tasks, placement, perf=perf)
        with tr.span("core.match"):
            matched = optimize_single_data(graph, seed=seed, perf=perf)
        opass = ParallelReadRun(
            fs, placement, tasks, StaticSource(matched.assignment), seed=seed
        ).run()
        with tr.span("assemble"):
            opass_served = monitor.served_mb_array()
            base_io, opass_io = base.io_stats(), opass.io_stats()
            figures = {
                "base_locality": base.locality_fraction,
                "opass_locality": opass.locality_fraction,
                "base_max_mb": float(base_served.max()),
                "opass_max_mb": float(opass_served.max()),
                "io_improvement": base_io["avg"] / opass_io["avg"],
            }
        ops = sum(len(t.inputs) for t in tasks)
        return Outcome(
            runs=[base.records, opass.records],
            ops_expected=2 * ops,
            sim_perfs=[base.sim_perf or {}, opass.sim_perf or {}],
            figures=figures,
            results=[base, opass],
        )

    def check(self, state: State, outcome: Outcome) -> dict[str, bool]:
        figures = outcome.figures
        return {
            "bytes_conserved": all(
                byte_conservation(state.fs, r) for r in outcome.results
            ),
            "opass_locality_ge_0.99": figures["opass_locality"] >= 0.99,
            "opass_max_mb_below_baseline": figures["opass_max_mb"]
            < figures["base_max_mb"],
        }

    def reference(self, seed: int) -> list[list[Any]]:
        cmp = run_single_data_comparison(
            self.NODES, chunks_per_process=self.CHUNKS_PER_PROCESS, seed=seed
        )
        return [cmp.base.records, cmp.opass.records]


class Fig9Multi(Workload):
    name = "fig9-multi"
    NODES = 256
    TASKS = 2560
    INPUT_SIZES_MB = (30, 20, 10)

    def setup(self, seed: int) -> State:
        fs = DistributedFileSystem(ClusterSpec.homogeneous(self.NODES), seed=seed)
        datasets = multi_input_datasets(self.TASKS, input_sizes_mb=self.INPUT_SIZES_MB)
        for ds in datasets:
            fs.put_dataset(ds)
        return State(fs=fs, datasets=datasets, seed=seed)

    def execute(self, state: State, tr: Any, perf: SchedPerf) -> Outcome:
        fs, seed = state.fs, state.seed
        with tr.span("core.plan"):
            placement = ProcessPlacement.one_per_node(self.NODES)
            tasks = tasks_from_datasets(state.datasets)
            baseline = rank_interval_assignment(len(tasks), self.NODES)
        with tr.span("assemble"):
            monitor = ServeMonitor(fs)
            monitor.start()
        base = ParallelReadRun(
            fs, placement, tasks, StaticSource(baseline), seed=seed
        ).run()
        # The default comparison builds the graph only to report its
        # planned locality; the Opass comparison asks again (a cache hit).
        with tr.span("core.graph_build"):
            graph = graph_from_filesystem(fs, tasks, placement, perf=perf)
        with tr.span("assemble"):
            base_served = monitor.served_mb_array()
            base_planned = locality_fraction(baseline, graph)
            monitor.start()
        with tr.span("core.graph_build"):
            graph = graph_from_filesystem(fs, tasks, placement, perf=perf)
        with tr.span("core.match"):
            assignment = optimize_multi_data(graph, perf=perf).assignment
        opass = ParallelReadRun(
            fs, placement, tasks, StaticSource(assignment), seed=seed
        ).run()
        with tr.span("assemble"):
            opass_served = monitor.served_mb_array()
            base_io, opass_io = base.io_stats(), opass.io_stats()
            figures = {
                "base_planned_locality": base_planned,
                "opass_planned_locality": locality_fraction(assignment, graph),
                "base_max_mb": float(base_served.max()),
                "opass_max_mb": float(opass_served.max()),
                "io_improvement": base_io["avg"] / opass_io["avg"],
            }
        ops = sum(len(t.inputs) for t in tasks)
        return Outcome(
            runs=[base.records, opass.records],
            ops_expected=2 * ops,
            sim_perfs=[base.sim_perf or {}, opass.sim_perf or {}],
            figures=figures,
            results=[base, opass],
        )

    def reference(self, seed: int) -> list[list[Any]]:
        cmp = run_multi_data_comparison(
            num_nodes=self.NODES,
            num_tasks=self.TASKS,
            input_sizes_mb=self.INPUT_SIZES_MB,
            seed=seed,
        )
        return [cmp.base.result.records, cmp.opass.result.records]


class Fig11Dynamic(Workload):
    name = "fig11-dynamic"
    NODES = 512
    FRAGMENTS = 5120
    COMPUTE_MEAN = 0.3
    COMPUTE_CV = 0.8

    def setup(self, seed: int) -> State:
        fs = DistributedFileSystem(ClusterSpec.homogeneous(self.NODES), seed=seed)
        db = gene_database(self.FRAGMENTS)
        fs.put_dataset(db)
        return State(fs=fs, datasets=[db], seed=seed)

    def _compute(self, seed: int) -> Any:
        return irregular_compute_model(
            self.COMPUTE_MEAN, cv=self.COMPUTE_CV, seed=seed + 2
        )

    def execute(self, state: State, tr: Any, perf: SchedPerf) -> Outcome:
        fs, seed = state.fs, state.seed
        with tr.span("core.plan"):
            placement = ProcessPlacement.one_per_node(self.NODES)
            tasks = tasks_from_dataset(state.datasets[0])
            policy = DefaultDynamicPolicy(len(tasks), mode="random", seed=seed + 1)
        base = run_master_worker(
            fs, placement, tasks, policy, compute_time=self._compute(seed), seed=seed
        )
        # Between the two halves the experiment clears the serve counters.
        with tr.span("assemble"):
            fs.reset_counters()
        with tr.span("core.graph_build"):
            graph = graph_from_filesystem(fs, tasks, placement, perf=perf)
        with tr.span("core.match"):
            matched = optimize_single_data(graph, seed=0, perf=perf)
        with tr.span("core.plan"):
            plan = plan_dynamic(graph, matched.assignment)
        opass = run_master_worker(
            fs, placement, tasks, plan, compute_time=self._compute(seed), seed=seed
        )
        with tr.span("assemble"):
            base_io = base.result.io_stats()
            opass_io = opass.result.io_stats()
            figures = {
                "base_locality": base.result.locality_fraction,
                "opass_locality": opass.result.locality_fraction,
                "io_improvement": base_io["avg"] / opass_io["avg"],
                "steals": float(opass.steals),
            }
        return Outcome(
            runs=[base.result.records, opass.result.records],
            ops_expected=2 * sum(len(t.inputs) for t in tasks),
            sim_perfs=[base.result.sim_perf or {}, opass.result.sim_perf or {}],
            figures=figures,
            results=[base.result, opass.result],
            steals=opass.steals,
        )

    def reference(self, seed: int) -> list[list[Any]]:
        cmp = run_dynamic_comparison(
            num_nodes=self.NODES,
            num_fragments=self.FRAGMENTS,
            compute_mean=self.COMPUTE_MEAN,
            compute_cv=self.COMPUTE_CV,
            seed=seed,
        )
        return [cmp.base.result.records, cmp.opass.result.records]


class IngestWrite(Workload):
    name = "ingest-write"
    NODES = 64
    CHUNKS = 640
    REPLICATION = 3

    def _fs(self, seed: int) -> DistributedFileSystem:
        return DistributedFileSystem(
            ClusterSpec.homogeneous(self.NODES),
            replication=self.REPLICATION,
            placement=HdfsWriterLocalPlacement(),
            seed=seed,
        )

    def setup(self, seed: int) -> State:
        return State(
            fs=self._fs(seed),
            datasets=[uniform_dataset("ingest", self.CHUNKS)],
            seed=seed,
        )

    def execute(self, state: State, tr: Any, perf: SchedPerf) -> Outcome:
        fs, data = state.fs, state.datasets[0]
        with tr.span("core.plan"):
            writers = ProcessPlacement.one_per_node(self.NODES)
        ingest = DatasetIngest(fs, writers, data, seed=state.seed)
        result = ingest.run()
        with tr.span("assemble"):
            stats = result.write_stats()
            figures = {
                "makespan_s": result.makespan,
                "avg_write_s": stats["avg"],
                "bytes_written": float(result.bytes_written),
            }
        return Outcome(
            runs=[result.records],
            ops_expected=data.num_chunks,
            sim_perfs=[ingest.sim.perf.snapshot()],
            figures=figures,
            results=[result],
        )

    def check(self, state: State, outcome: Outcome) -> dict[str, bool]:
        fs = state.fs
        result = outcome.results[0]
        chunks = list(state.datasets[0].iter_chunks())
        layout = fs.layout_snapshot()
        total = sum(c.size for c in chunks)
        written = sum(fs.chunk(r.chunk).size for r in result.records)
        return {
            "bytes_written_eq_dataset": result.bytes_written == total
            and written == total,
            "every_chunk_has_r_replicas": all(
                len(set(layout.get(c.id, ()))) == self.REPLICATION
                and all(fs.datanodes[n].holds(c.id) for n in layout[c.id])
                for c in chunks
            ),
            "pipelines_match_layout": all(
                tuple(r.pipeline) == layout.get(r.chunk) for r in result.records
            ),
        }

    def reference(self, seed: int) -> list[list[Any]]:
        data = uniform_dataset("ingest", self.CHUNKS)
        writers = ProcessPlacement.one_per_node(self.NODES)
        return [DatasetIngest(self._fs(seed), writers, data, seed=seed).run().records]


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (Fig7Single(), Fig9Multi(), Fig11Dynamic(), IngestWrite())
}
