"""End-to-end integration tests: the paper's headline claims at small scale.

Each test runs a full pipeline — store dataset, build graph, optimize,
execute on the simulator — and checks the *shape* of the paper's result
(who wins, and roughly by how much), scaled down for test speed.
"""

import numpy as np
import pytest

from repro.analysis import (
    expected_local_fraction,
    prob_more_than,
)
from repro.apps import MultiInputComparison, ParaViewMultiBlockReader
from repro.core import (
    DefaultDynamicPolicy,
    ProcessPlacement,
    opass_dynamic_plan,
    tasks_from_dataset,
)
from repro.dfs import ClusterSpec, DistributedFileSystem, uniform_dataset
from repro.metrics import ServeMonitor, imbalance_factor, jains_fairness
from repro.parallel import run_master_worker, run_opass_single, run_rank_interval
from repro.workloads import (
    gene_database,
    multi_input_datasets,
    paraview_multiblock_series,
    single_data_workload,
)

NODES = 16


def fresh_fs(seed=0):
    return DistributedFileSystem(ClusterSpec.homogeneous(NODES), seed=seed)


class TestSingleDataEndToEnd:
    """The §V-A1 experiment at 16 nodes."""

    def test_opass_flattens_io_and_balances_serving(self):
        fs = fresh_fs(seed=3)
        data = single_data_workload(NODES, 10)
        fs.put_dataset(data)
        placement = ProcessPlacement.one_per_node(NODES)
        tasks = tasks_from_dataset(data)

        mon = ServeMonitor(fs)
        mon.start()
        base = run_rank_interval(fs, placement, tasks, seed=1)
        base_served = mon.served_mb_array()

        mon.start()
        opass = run_opass_single(fs, placement, tasks, seed=1)
        opass_served = mon.served_mb_array()

        # I/O time: Opass much flatter and faster on average.
        bs, os_ = base.result.io_stats(), opass.result.io_stats()
        assert os_["avg"] < bs["avg"] / 1.5
        assert os_["max"] < bs["max"] / 2
        assert os_["std"] < bs["std"]

        # Locality: baseline near r/m, Opass near 1.
        assert base.result.locality_fraction < 0.4
        assert opass.result.locality_fraction > 0.95

        # Balance: serving is near-perfectly fair under Opass.
        assert jains_fairness(opass_served) > jains_fairness(base_served)
        assert jains_fairness(opass_served) > 0.97

        # Makespan improves end to end.
        assert opass.result.makespan < base.result.makespan

    def test_baseline_locality_matches_analysis(self):
        """Measured baseline locality ≈ the §III expectation r/m."""
        fracs = []
        for seed in range(5):
            fs = fresh_fs(seed=seed)
            data = single_data_workload(NODES, 10)
            fs.put_dataset(data)
            placement = ProcessPlacement.one_per_node(NODES)
            tasks = tasks_from_dataset(data)
            out = run_rank_interval(fs, placement, tasks, seed=seed)
            fracs.append(out.result.locality_fraction)
        expected = expected_local_fraction(3, NODES)
        assert np.mean(fracs) == pytest.approx(expected, abs=0.06)


class TestMultiDataEndToEnd:
    """The §V-A2 experiment: improvement exists but is smaller."""

    def test_opass_improves_but_partially(self):
        fs = fresh_fs(seed=7)
        datasets = multi_input_datasets(NODES * 10)
        for ds in datasets:
            fs.put_dataset(ds)
        placement = ProcessPlacement.one_per_node(NODES)

        base = MultiInputComparison(fs, placement, datasets, use_opass=False).execute(seed=2)
        fs.reset_counters()
        opass = MultiInputComparison(fs, placement, datasets, use_opass=True).execute(seed=2)

        ratio = base.result.io_stats()["avg"] / opass.result.io_stats()["avg"]
        assert ratio > 1.2  # clearly better
        # ...but smaller than the single-data win, and locality is partial:
        assert opass.result.locality_fraction < 0.9
        assert opass.result.locality_fraction > base.result.locality_fraction


class TestDynamicEndToEnd:
    """The §V-A3 experiment: guided lists beat the random master."""

    def test_opass_dynamic_beats_default(self):
        fs = fresh_fs(seed=11)
        db = gene_database(NODES * 10)
        fs.put_dataset(db)
        placement = ProcessPlacement.one_per_node(NODES)
        tasks = tasks_from_dataset(db)

        default = run_master_worker(
            fs, placement, tasks, DefaultDynamicPolicy(len(tasks), seed=1), seed=2
        )
        fs.reset_counters()
        plan, _, _ = opass_dynamic_plan(fs, "genedb", placement)
        opass = run_master_worker(fs, placement, tasks, plan, seed=2)

        ratio = default.result.io_stats()["avg"] / opass.result.io_stats()["avg"]
        assert ratio > 1.8  # paper: 2.7x at 64 nodes
        assert opass.result.locality_fraction > 0.9


class TestParaViewEndToEnd:
    """The §V-B experiment: lower mean, much lower variance, faster run."""

    def test_reader_call_statistics_shape(self):
        fs = fresh_fs(seed=13)
        series = paraview_multiblock_series(NODES * 5)
        fs.put_dataset(series)
        placement = ProcessPlacement.one_per_node(NODES)

        stock = ParaViewMultiBlockReader(fs, placement, series, use_opass=False).render(seed=3)
        fs.reset_counters()
        opass = ParaViewMultiBlockReader(fs, placement, series, use_opass=True).render(seed=3)

        assert opass.avg_call_time < stock.avg_call_time
        assert opass.std_call_time < stock.std_call_time / 2
        assert opass.total_execution_time < stock.total_execution_time
        # Fastest stock call ≈ a local read+parse, same as Opass's typical.
        assert stock.min_call_time == pytest.approx(opass.avg_call_time, rel=0.25)


class TestMotivationEndToEnd:
    """Figure 1: imbalanced serving and varied I/O times on the baseline."""

    def test_figure1_shape(self):
        fs = fresh_fs(seed=17)
        data = uniform_dataset("intro", NODES * 2)  # 2 chunks/node ideal
        fs.put_dataset(data)
        placement = ProcessPlacement.one_per_node(NODES)
        tasks = tasks_from_dataset(data)

        mon = ServeMonitor(fs)
        mon.start()
        out = run_rank_interval(fs, placement, tasks, seed=4)
        served_chunks = mon.chunks_served_array()

        # Ideal is 2 chunks/node; reality: some nodes serve 0, some many.
        assert served_chunks.max() >= 4
        assert served_chunks.min() <= 1
        # I/O times vary (Figure 1(b)).
        assert imbalance_factor(out.result.durations()) > 2

    def test_remote_fraction_grows_with_cluster_size(self):
        """§III-A's scaling claim measured end to end."""
        fractions = []
        for m in (8, 16, 32):
            fs = DistributedFileSystem(ClusterSpec.homogeneous(m), seed=19)
            data = single_data_workload(m, 5)
            fs.put_dataset(data)
            placement = ProcessPlacement.one_per_node(m)
            tasks = tasks_from_dataset(data)
            out = run_rank_interval(fs, placement, tasks, seed=5)
            fractions.append(1 - out.result.locality_fraction)
        assert fractions[0] < fractions[1] < fractions[2]
        # And the analytical tail probability drops accordingly.
        assert prob_more_than(5, 160, 3, 32) < prob_more_than(5, 40, 3, 8)
