"""Unit tests for the DistributedFileSystem facade."""

import numpy as np
import pytest

from repro.dfs import (
    Cluster,
    ClusterSpec,
    DistributedFileSystem,
    FirstListed,
    uniform_dataset,
)
from repro.dfs.chunk import MB, ChunkId


@pytest.fixture
def fs():
    f = DistributedFileSystem(ClusterSpec.homogeneous(6), replication=2, seed=3)
    f.put_dataset(uniform_dataset("d", 12, chunk_size=MB))
    return f


class TestPutDataset:
    def test_replicas_registered_everywhere(self, fs):
        for cid, nodes in fs.layout_snapshot().items():
            assert len(nodes) == 2
            for n in nodes:
                assert fs.datanodes[n].holds(cid)

    def test_replica_count_matches_storage(self, fs):
        total_replicas = sum(fs.replica_count_per_node().values())
        assert total_replicas == 12 * 2

    def test_get_block_locations(self, fs):
        locs = fs.get_block_locations("d/part-00003")
        assert len(locs) == 1
        chunk, nodes = locs[0]
        assert chunk.size == MB
        assert len(nodes) == 2

    def test_duplicate_dataset_rejected(self, fs):
        with pytest.raises(ValueError):
            fs.put_dataset(uniform_dataset("d", 1))

    def test_invalid_replication(self):
        with pytest.raises(ValueError):
            DistributedFileSystem(ClusterSpec.homogeneous(2), replication=0)

    @pytest.mark.parametrize("replication", [3, 5, 8])
    def test_replication_above_node_count_under_replicates(self, replication):
        # HDFS accepts a replication factor above the node count and leaves
        # the blocks under-replicated; so does this file system.
        f = DistributedFileSystem(
            ClusterSpec.homogeneous(3), replication=replication, seed=1
        )
        f.put_dataset(uniform_dataset("u", 10, chunk_size=MB))
        layout = f.layout_snapshot()
        assert len(layout) == 10
        for cid, nodes in layout.items():
            assert len(nodes) == len(set(nodes)) == min(replication, 3)
            for n in nodes:
                assert f.datanodes[n].holds(cid)


class TestResolveRead:
    def test_local_preferred(self, fs):
        cid = ChunkId("d/part-00000", 0)
        local_node = fs.layout_snapshot()[cid][0]
        plan = fs.resolve_read(cid, local_node)
        assert plan.is_local
        assert plan.server_node == local_node

    def test_remote_chooses_replica_holder(self, fs):
        cid = ChunkId("d/part-00000", 0)
        replicas = set(fs.layout_snapshot()[cid])
        outsider = next(n for n in range(6) if n not in replicas)
        plan = fs.resolve_read(cid, outsider)
        assert not plan.is_local
        assert plan.server_node in replicas

    def test_serve_counters_updated(self, fs):
        cid = ChunkId("d/part-00000", 0)
        node = fs.layout_snapshot()[cid][0]
        fs.resolve_read(cid, node)
        assert fs.datanodes[node].bytes_served == MB
        assert fs.bytes_served_per_node()[node] == MB
        assert fs.requests_served_per_node()[node] == 1

    def test_invalid_reader_node(self, fs):
        with pytest.raises(KeyError):
            fs.resolve_read(ChunkId("d/part-00000", 0), 99)

    def test_unknown_chunk(self, fs):
        with pytest.raises(FileNotFoundError):
            fs.resolve_read(ChunkId("nope", 0), 0)

    def test_decommissioned_node_never_serves(self, fs):
        cid = ChunkId("d/part-00000", 0)
        replicas = fs.layout_snapshot()[cid]
        fs.cluster.decommission(replicas[0])
        outsider = next(
            n for n in fs.cluster.active_nodes if n not in replicas
        )
        for _ in range(10):
            plan = fs.resolve_read(cid, outsider)
            assert plan.server_node != replicas[0]

    def test_no_live_replica_raises(self, fs):
        cid = ChunkId("d/part-00000", 0)
        replicas = fs.layout_snapshot()[cid]
        survivors = [n for n in range(6) if n not in replicas]
        for n in replicas:
            fs.cluster.decommission(n)
        with pytest.raises(RuntimeError, match="no live replica"):
            fs.resolve_read(cid, survivors[0])

    def test_custom_replica_choice_policy(self):
        f = DistributedFileSystem(
            ClusterSpec.homogeneous(6),
            replication=2,
            replica_choice=FirstListed(),
            seed=3,
        )
        f.put_dataset(uniform_dataset("d", 4, chunk_size=MB))
        cid = ChunkId("d/part-00000", 0)
        replicas = f.layout_snapshot()[cid]
        outsider = next(n for n in range(6) if n not in replicas)
        for _ in range(5):
            assert f.resolve_read(cid, outsider).server_node == replicas[0]


class TestCounters:
    def test_reset_counters(self, fs):
        cid = ChunkId("d/part-00000", 0)
        fs.resolve_read(cid, fs.layout_snapshot()[cid][0])
        fs.reset_counters()
        assert all(v == 0 for v in fs.bytes_served_per_node().values())

    def test_accepts_cluster_object(self):
        cluster = Cluster(ClusterSpec.homogeneous(3))
        f = DistributedFileSystem(cluster, seed=0)
        assert f.num_nodes == 3

    def test_rng_seeding_reproducible(self):
        def build(seed):
            f = DistributedFileSystem(ClusterSpec.homogeneous(8), seed=seed)
            f.put_dataset(uniform_dataset("d", 20, chunk_size=MB))
            return f.layout_snapshot()

        assert build(5) == build(5)
        assert build(5) != build(6)

    def test_generator_seed_accepted(self):
        gen = np.random.default_rng(0)
        f = DistributedFileSystem(ClusterSpec.homogeneous(3), seed=gen)
        assert f.rng is gen
