"""Tests for cluster resource construction and read paths."""

import pytest

from repro.dfs.cluster import ClusterSpec
from repro.simulate.resources import (
    Resource,
    cluster_resources,
    disk,
    local_read_path,
    nic_rx,
    nic_tx,
    remote_read_path,
)


class TestNames:
    def test_naming_scheme(self):
        assert disk(3) == "disk:3"
        assert nic_tx(3) == "tx:3"
        assert nic_rx(3) == "rx:3"


class TestClusterResources:
    def test_three_per_node(self):
        spec = ClusterSpec.homogeneous(4)
        res = cluster_resources(spec)
        assert len(res) == 12
        names = {r.name for r in res}
        assert disk(0) in names and nic_tx(3) in names and nic_rx(2) in names

    def test_capacities_match_spec(self):
        spec = ClusterSpec.homogeneous(2, disk_bw=11.0, nic_bw=22.0)
        by_name = {r.name: r for r in cluster_resources(spec)}
        assert by_name[disk(0)].capacity == 11.0
        assert by_name[nic_tx(1)].capacity == 22.0

    def test_disk_penalty_propagated(self):
        spec = ClusterSpec.homogeneous(2, disk_concurrency_penalty=0.4)
        by_name = {r.name: r for r in cluster_resources(spec)}
        assert by_name[disk(0)].concurrency_penalty == 0.4
        assert by_name[nic_tx(0)].concurrency_penalty == 0.0


class TestPaths:
    def test_local_path(self):
        assert local_read_path(5) == [disk(5)]

    def test_remote_path(self):
        assert remote_read_path(2, 7) == [disk(2), nic_tx(2), nic_rx(7)]

    def test_remote_same_node_rejected(self):
        with pytest.raises(ValueError):
            remote_read_path(2, 2)


class TestResourceValidation:
    def test_positive_capacity_required(self):
        with pytest.raises(ValueError):
            Resource("x", 0)

    def test_nan_capacity_rejected(self):
        with pytest.raises(ValueError, match="positive capacity"):
            Resource("x", float("nan"))

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            Resource("x", 1, concurrency_penalty=-1)

    def test_nan_penalty_rejected(self):
        with pytest.raises(ValueError, match="non-negative penalty"):
            Resource("x", 1.0, concurrency_penalty=float("nan"))
