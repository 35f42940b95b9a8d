"""Tests for the HDFS balancer model."""

import pytest

from repro.dfs import (
    ClusterSpec,
    DistributedFileSystem,
    Rebalancer,
    SkewedPlacement,
    uniform_dataset,
)
from repro.dfs.chunk import MB


def skewed_fs(excluded=0.5, nodes=8, chunks=48, seed=3):
    fs = DistributedFileSystem(
        ClusterSpec.homogeneous(nodes),
        placement=SkewedPlacement(excluded_fraction=excluded),
        seed=seed,
    )
    fs.put_dataset(uniform_dataset("d", chunks, chunk_size=4 * MB))
    return fs


class TestIntrospection:
    def test_spread_detects_skew(self):
        fs = skewed_fs()
        r = Rebalancer(fs)
        assert r.utilisation_spread() > 0.5
        assert not r.is_balanced()

    def test_balanced_layout_recognised(self):
        fs = DistributedFileSystem(ClusterSpec.homogeneous(4), seed=0)
        fs.put_dataset(uniform_dataset("d", 400, chunk_size=MB))
        r = Rebalancer(fs, threshold=0.3)
        # Random placement over many chunks is near-even.
        assert r.is_balanced()

    def test_threshold_validation(self):
        fs = skewed_fs()
        with pytest.raises(ValueError):
            Rebalancer(fs, threshold=0.0)
        with pytest.raises(ValueError):
            Rebalancer(fs, threshold=1.5)


class TestMigration:
    def test_run_flattens_storage(self):
        fs = skewed_fs()
        r = Rebalancer(fs, threshold=0.15)
        before = r.utilisation_spread()
        report = r.run()
        after = r.utilisation_spread()
        assert report.num_moves > 0
        assert report.bytes_moved == report.num_moves * 4 * MB
        assert after < before
        assert report.converged

    def test_invariants_preserved(self):
        fs = skewed_fs()
        layout_before = fs.layout_snapshot()
        Rebalancer(fs, threshold=0.15).run()
        layout_after = fs.layout_snapshot()
        # Same chunks, same replica counts, all replicas distinct nodes.
        assert set(layout_after) == set(layout_before)
        for cid, nodes in layout_after.items():
            assert len(nodes) == len(layout_before[cid])
            assert len(set(nodes)) == len(nodes)
        # DataNode inventories agree with the NameNode.
        for cid, nodes in layout_after.items():
            for n in nodes:
                assert fs.datanodes[n].holds(cid)

    def test_no_moves_when_already_balanced(self):
        fs = DistributedFileSystem(ClusterSpec.homogeneous(4), seed=0)
        fs.put_dataset(uniform_dataset("d", 400, chunk_size=MB))
        report = Rebalancer(fs, threshold=0.3).run()
        assert report.num_moves == 0
        assert report.converged

    def test_max_passes_validation(self):
        fs = skewed_fs()
        with pytest.raises(ValueError):
            Rebalancer(fs).run(max_passes=0)

    def test_rebalanced_layout_restores_matching(self):
        """After rebalancing a skewed layout, the Opass matching recovers
        locality that the skew had destroyed — but the data had to move."""
        from repro.core import (
            ProcessPlacement,
            graph_from_filesystem,
            locality_fraction,
            optimize_single_data,
            tasks_from_dataset,
        )

        fs = skewed_fs(excluded=0.5, nodes=8, chunks=80)
        placement = ProcessPlacement.one_per_node(8)
        tasks = tasks_from_dataset(fs.dataset("d"))
        graph = graph_from_filesystem(fs, tasks, placement)
        before = locality_fraction(optimize_single_data(graph).assignment, graph)

        Rebalancer(fs, threshold=0.15).run()
        graph2 = graph_from_filesystem(fs, tasks, placement)
        after = locality_fraction(optimize_single_data(graph2).assignment, graph2)
        assert after > before
