"""Tests for the parallel workload runner."""

import pytest

from repro.core import (
    ProcessPlacement,
    rank_interval_assignment,
    tasks_from_dataset,
)
from repro.core.assignment import Assignment
from repro.dfs import ClusterSpec, DistributedFileSystem, uniform_dataset
from repro.dfs.chunk import MB
from repro.simulate.runner import ParallelReadRun, StaticSource


@pytest.fixture
def env():
    spec = ClusterSpec.homogeneous(4, seek_latency=0.0, remote_latency=0.0)
    fs = DistributedFileSystem(spec, replication=2, seed=8)
    ds = uniform_dataset("d", 8, chunk_size=10 * MB)
    fs.put_dataset(ds)
    placement = ProcessPlacement.one_per_node(4)
    tasks = tasks_from_dataset(ds)
    return fs, placement, tasks


class TestStaticSource:
    def test_pops_in_order(self):
        src = StaticSource(Assignment({0: [3, 1], 1: [2]}))
        assert src.next_task(0) == 3
        assert src.next_task(0) == 1
        assert src.next_task(0) is None
        assert src.next_task(1) == 2
        assert src.next_task(5) is None

    def test_remaining(self):
        src = StaticSource(Assignment({0: [3, 1]}))
        src.next_task(0)
        assert src.remaining(0) == 1
        assert src.remaining(9) == 0


class TestProcessCountMismatch:
    """A static assignment sized for another placement fails at construction.

    Unchecked, a 9-process assignment on 8 processes dropped rank 8's
    tasks (14 of 16 completed) and a 4-process one left ranks 4-7 idle.
    """

    @pytest.fixture
    def env8(self):
        spec = ClusterSpec.homogeneous(8, seek_latency=0.0, remote_latency=0.0)
        fs = DistributedFileSystem(spec, replication=2, seed=8)
        ds = uniform_dataset("d", 16, chunk_size=10 * MB)
        fs.put_dataset(ds)
        return fs, ProcessPlacement.one_per_node(8), tasks_from_dataset(ds)

    @pytest.mark.parametrize("processes", [9, 4])
    def test_rejected_naming_both_counts(self, env8, processes):
        fs, placement, tasks = env8
        source = StaticSource(rank_interval_assignment(16, processes))
        with pytest.raises(ValueError, match=rf"\b{processes} processes.* 8\b"):
            ParallelReadRun(fs, placement, tasks, source)

    def test_matching_count_runs_every_task(self, env8):
        fs, placement, tasks = env8
        source = StaticSource(rank_interval_assignment(16, 8))
        assert ParallelReadRun(fs, placement, tasks, source).run().tasks_completed == 16


class TestBasicRun:
    def test_all_tasks_complete(self, env):
        fs, placement, tasks = env
        a = rank_interval_assignment(8, 4)
        result = ParallelReadRun(fs, placement, tasks, StaticSource(a)).run()
        assert result.tasks_completed == 8
        assert len(result.records) == 8
        assert result.makespan > 0

    def test_records_well_formed(self, env):
        fs, placement, tasks = env
        a = rank_interval_assignment(8, 4)
        result = ParallelReadRun(fs, placement, tasks, StaticSource(a)).run()
        for rec in result.records:
            assert rec.end_time >= rec.issue_time
            assert rec.duration > 0
            assert rec.local == (rec.server_node == rec.reader_node)

    def test_bytes_accounted(self, env):
        fs, placement, tasks = env
        a = rank_interval_assignment(8, 4)
        result = ParallelReadRun(fs, placement, tasks, StaticSource(a)).run()
        assert result.local_bytes + result.remote_bytes == 8 * 10 * MB
        assert sum(result.bytes_served.values()) == 8 * 10 * MB

    def test_serve_counts_are_deltas(self, env):
        fs, placement, tasks = env
        a = rank_interval_assignment(8, 4)
        ParallelReadRun(fs, placement, tasks, StaticSource(a), seed=0).run()
        # Second run must not double count the first run's serves.
        r2 = ParallelReadRun(fs, placement, tasks, StaticSource(a), seed=1).run()
        assert sum(r2.bytes_served.values()) == 8 * 10 * MB

    def test_durations_ordered_by_completion(self, env):
        fs, placement, tasks = env
        a = rank_interval_assignment(8, 4)
        result = ParallelReadRun(fs, placement, tasks, StaticSource(a)).run()
        d = result.durations()
        assert d.shape == (8,)
        assert (d > 0).all()

    def test_io_stats_fields(self, env):
        fs, placement, tasks = env
        a = rank_interval_assignment(8, 4)
        result = ParallelReadRun(fs, placement, tasks, StaticSource(a)).run()
        s = result.io_stats()
        assert s["min"] <= s["avg"] <= s["max"]

    def test_local_run_time_matches_disk_bw(self, env):
        """A fully local assignment reads each chunk at full disk speed."""
        fs, placement, tasks = env
        layout = fs.layout_snapshot()
        a = Assignment.empty(4)
        for t in tasks:
            a.assign(layout[t.inputs[0]][0], t.task_id)
        result = ParallelReadRun(fs, placement, tasks, StaticSource(a)).run()
        assert result.locality_fraction == 1.0
        expected = 10 * MB / fs.spec.node(0).disk_bw
        # Some nodes own several chunks and read them sequentially; each
        # individual read is uncontended (one process per disk).
        assert result.io_stats()["max"] == pytest.approx(expected, rel=1e-6)


class TestComputeModel:
    def test_constant_compute_extends_makespan(self, env):
        fs, placement, tasks = env
        a = rank_interval_assignment(8, 4)
        base = ParallelReadRun(fs, placement, tasks, StaticSource(a), seed=0).run()
        fs.reset_counters()
        slow = ParallelReadRun(
            fs, placement, tasks, StaticSource(a), compute_time=1.0, seed=0
        ).run()
        assert slow.makespan >= base.makespan + 1.0

    def test_callable_compute(self, env):
        fs, placement, tasks = env
        a = rank_interval_assignment(8, 4)
        calls = []

        def model(rank, task, rng):
            calls.append((rank, task))
            return 0.1

        result = ParallelReadRun(
            fs, placement, tasks, StaticSource(a), compute_time=model
        ).run()
        assert len(calls) == 8
        assert result.tasks_completed == 8

    def test_negative_constant_rejected(self, env):
        fs, placement, tasks = env
        a = rank_interval_assignment(8, 4)
        with pytest.raises(ValueError):
            ParallelReadRun(fs, placement, tasks, StaticSource(a), compute_time=-1)

    def test_negative_model_value_rejected(self, env):
        fs, placement, tasks = env
        a = rank_interval_assignment(8, 4)
        run = ParallelReadRun(
            fs, placement, tasks, StaticSource(a), compute_time=lambda r, t, g: -1.0
        )
        with pytest.raises(ValueError):
            run.run()


class TestBarrierMode:
    def test_barrier_requires_static_source(self, env):
        fs, placement, tasks = env
        from repro.core import DefaultDynamicPolicy

        with pytest.raises(ValueError, match="StaticSource"):
            ParallelReadRun(
                fs, placement, tasks, DefaultDynamicPolicy(8), barrier=True
            )

    def test_barrier_rounds_serialize(self, env):
        """With barriers, round k's reads all start after round k-1 ends."""
        fs, placement, tasks = env
        a = rank_interval_assignment(8, 4)  # 2 tasks per rank = 2 rounds
        result = ParallelReadRun(
            fs, placement, tasks, StaticSource(a), barrier=True
        ).run()
        by_round: dict[int, list] = {0: [], 1: []}
        for rank, ts in a.tasks_of.items():
            for i, t in enumerate(ts):
                by_round[i].append(t)
        recs = {r.task_id: r for r in result.records}
        end_round0 = max(recs[t].end_time for t in by_round[0])
        start_round1 = min(recs[t].issue_time for t in by_round[1])
        assert start_round1 >= end_round0 - 1e-9

    def test_barrier_compute_time_adds_per_round(self):
        def fresh():
            spec = ClusterSpec.homogeneous(4, seek_latency=0.0, remote_latency=0.0)
            fs = DistributedFileSystem(spec, replication=2, seed=8)
            ds = uniform_dataset("d", 8, chunk_size=10 * MB)
            fs.put_dataset(ds)
            return fs, ProcessPlacement.one_per_node(4), tasks_from_dataset(ds)

        a = rank_interval_assignment(8, 4)
        fs, placement, tasks = fresh()
        plain = ParallelReadRun(
            fs, placement, tasks, StaticSource(a), barrier=True, seed=0
        ).run()
        fs, placement, tasks = fresh()  # identical layout + replica choices
        render = ParallelReadRun(
            fs,
            placement,
            tasks,
            StaticSource(a),
            barrier=True,
            barrier_compute_time=2.0,
            seed=0,
        ).run()
        # 2 rounds -> +4 s (one render per data-processing round).
        assert render.makespan == pytest.approx(plain.makespan + 4.0, rel=1e-6)

    def test_uneven_lists_finish(self, env):
        fs, placement, tasks = env
        a = Assignment({0: [0, 1, 2, 3, 4], 1: [5, 6], 2: [7], 3: []})
        result = ParallelReadRun(
            fs, placement, tasks, StaticSource(a), barrier=True
        ).run()
        assert result.tasks_completed == 8


class TestDynamicSources:
    def test_default_dynamic_policy_completes(self, env):
        from repro.core import DefaultDynamicPolicy

        fs, placement, tasks = env
        policy = DefaultDynamicPolicy(8, mode="random", seed=4)
        result = ParallelReadRun(fs, placement, tasks, policy).run()
        assert result.tasks_completed == 8

    def test_multi_chunk_tasks_read_sequentially(self):
        spec = ClusterSpec.homogeneous(2, seek_latency=0.0, remote_latency=0.0)
        fs = DistributedFileSystem(spec, replication=1, seed=0)
        from repro.dfs.chunk import dataset_from_sizes

        ds = dataset_from_sizes("d", [30 * MB], chunk_size=10 * MB)
        fs.put_dataset(ds)
        tasks = tasks_from_dataset(ds)
        placement = ProcessPlacement.one_per_node(2)
        a = Assignment({0: [0], 1: []})
        result = ParallelReadRun(fs, placement, tasks, StaticSource(a)).run()
        assert len(result.records) == 3
        ends = [r.end_time for r in sorted(result.records, key=lambda r: r.seq)]
        assert ends == sorted(ends)
