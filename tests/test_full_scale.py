"""Full-scale integration: Marmot-sized runs and a whole-lifecycle chain.

These run at the paper's actual cluster size (128 nodes) and chain every
major subsystem in one scenario.  They are the slowest tests in the suite
(a few seconds each) and exist to catch scale-dependent regressions the
small fixtures cannot.
"""

import pytest

from repro.core import (
    ProcessPlacement,
    equal_quotas,
    graph_from_filesystem,
    locality_fraction,
    opass_single_data,
    optimize_single_data,
    rank_interval_assignment,
    rematch_incremental,
    tasks_from_dataset,
)
from repro.dfs import (
    ClusterSpec,
    DistributedFileSystem,
    HdfsWriterLocalPlacement,
    save_snapshot,
    load_snapshot,
)
from repro.dfs.chunk import uniform_dataset
from repro.metrics import jains_fairness
from repro.simulate import (
    DatasetIngest,
    FaultPlan,
    ParallelReadRun,
    StaticSource,
)


class TestMarmotScale:
    """The paper's 128-node cluster size."""

    def test_single_data_at_128_nodes(self):
        m = 128
        fs = DistributedFileSystem(ClusterSpec.homogeneous(m), seed=71)
        data = uniform_dataset("big", m * 10)
        fs.put_dataset(data)
        placement = ProcessPlacement.one_per_node(m)
        tasks = tasks_from_dataset(data)
        result, graph, _ = opass_single_data(fs, data, placement, seed=1)
        assert result.full_matching
        assert locality_fraction(result.assignment, graph) == 1.0

        run = ParallelReadRun(
            fs, placement, tasks, StaticSource(result.assignment), seed=1
        ).run()
        assert run.tasks_completed == 1280
        stats = run.io_stats()
        assert stats["max"] - stats["min"] < 1e-6  # perfectly flat
        assert stats["avg"] == pytest.approx(0.924, abs=0.02)
        served = run.served_bytes_array(m)
        assert jains_fairness(served) > 0.999

    def test_baseline_at_128_nodes_matches_analysis(self):
        from repro.analysis import expected_local_fraction

        m = 128
        fs = DistributedFileSystem(ClusterSpec.homogeneous(m), seed=73)
        data = uniform_dataset("big", m * 10)
        fs.put_dataset(data)
        placement = ProcessPlacement.one_per_node(m)
        tasks = tasks_from_dataset(data)
        run = ParallelReadRun(
            fs, placement, tasks,
            StaticSource(rank_interval_assignment(len(tasks), m)), seed=1,
        ).run()
        # §III: locality ≈ r/m = 2.3% at 128 nodes.
        assert run.locality_fraction == pytest.approx(
            expected_local_fraction(3, m), abs=0.02
        )


class TestWholeLifecycle:
    def test_ingest_match_fail_repair_chain(self, tmp_path):
        """One scenario through every subsystem: timed ingest → snapshot →
        matching → faulted run with retries → incremental repair →
        re-run on the repaired plan."""
        m = 24
        spec = ClusterSpec.homogeneous(m)
        fs = DistributedFileSystem(
            spec, placement=HdfsWriterLocalPlacement(), seed=79
        )
        data = uniform_dataset("life", m * 5)
        writers = ProcessPlacement.one_per_node(m)

        # 1. ingest through the write pipeline.
        ingest = DatasetIngest(fs, writers, data, seed=1).run()
        assert ingest.bytes_written == data.size

        # 2. snapshot the layout (the reproducibility artifact).
        snap = save_snapshot(fs, tmp_path / "layout.json")
        replica = DistributedFileSystem(spec, seed=0)
        load_snapshot(replica, snap)
        assert replica.layout_snapshot() == fs.layout_snapshot()

        # 3. match and run under two node failures.
        tasks = tasks_from_dataset(fs.dataset("life"))
        graph = graph_from_filesystem(fs, tasks, writers)
        matched = optimize_single_data(graph, seed=1)
        run = ParallelReadRun(
            fs, writers, tasks, StaticSource(matched.assignment), seed=1
        )
        FaultPlan().fail(0.5, 0).fail(1.5, 1).attach(run)
        faulty = run.run()
        assert faulty.tasks_completed == len(tasks)

        # 4. repair the plan for the shrunken cluster.
        fs.namenode.drop_node_replicas(0)
        fs.namenode.drop_node_replicas(1)
        new_graph = graph_from_filesystem(fs, tasks, writers)
        quotas = [0, 0] + equal_quotas(len(tasks), m - 2)
        repaired = rematch_incremental(
            new_graph, matched.assignment, quotas=quotas, seed=1
        )
        assert repaired.churn >= 10  # at least the dead nodes' tasks
        assert len(repaired.assignment.tasks_of[0]) == 0
        assert len(repaired.assignment.tasks_of[1]) == 0

        # 5. the repaired plan runs clean on the survivors.
        rerun = ParallelReadRun(
            fs, writers, tasks, StaticSource(repaired.assignment), seed=2
        ).run()
        assert rerun.tasks_completed == len(tasks)
        assert rerun.read_retries == 0
        assert rerun.locality_fraction > 0.85
