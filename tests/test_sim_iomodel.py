"""Tests for the read cost model."""

import pytest

from repro.dfs.chunk import Chunk, ChunkId
from repro.dfs.cluster import ClusterSpec
from repro.dfs.filesystem import ReadPlan
from repro.simulate.iomodel import read_cost, uncontended_read_time
from repro.simulate.resources import disk, nic_rx, nic_tx


@pytest.fixture
def spec():
    return ClusterSpec.homogeneous(
        4,
        disk_bw=100.0,
        nic_bw=200.0,
        seek_latency=0.01,
        remote_latency=0.05,
        remote_stream_bw=40.0,
    )


def _plan(reader, server):
    chunk = Chunk(ChunkId("f", 0), 1000)
    return ReadPlan(chunk=chunk, reader_node=reader, server_node=server)


class TestReadCost:
    def test_local_cost(self, spec):
        cost = read_cost(_plan(1, 1), spec)
        assert cost.latency == pytest.approx(0.01)
        assert cost.path == (disk(1),)
        assert cost.size == 1000
        assert cost.rate_cap is None

    def test_remote_cost(self, spec):
        cost = read_cost(_plan(0, 2), spec)
        assert cost.latency == pytest.approx(0.06)
        assert cost.path == (disk(2), nic_tx(2), nic_rx(0))
        assert cost.rate_cap == pytest.approx(40.0)


class TestUncontendedTime:
    def test_local(self, spec):
        t = uncontended_read_time(_plan(1, 1), spec)
        assert t == pytest.approx(0.01 + 1000 / 100.0)

    def test_remote_capped_by_stream(self, spec):
        t = uncontended_read_time(_plan(0, 2), spec)
        assert t == pytest.approx(0.06 + 1000 / 40.0)

    def test_remote_slower_than_local(self, spec):
        assert uncontended_read_time(_plan(0, 2), spec) > uncontended_read_time(
            _plan(1, 1), spec
        )

    def test_remote_bottleneck_without_cap(self):
        spec = ClusterSpec.homogeneous(
            2, disk_bw=10.0, nic_bw=5.0, remote_stream_bw=1000.0,
            seek_latency=0.0, remote_latency=0.0,
        )
        t = uncontended_read_time(_plan(0, 1), spec)
        assert t == pytest.approx(1000 / 5.0)
