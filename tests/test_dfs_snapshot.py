"""Tests for layout snapshot save/restore."""

import json

import pytest

from repro.core import (
    ProcessPlacement,
    graph_from_filesystem,
    optimize_single_data,
    tasks_from_dataset,
)
from repro.dfs import (
    ClusterSpec,
    DistributedFileSystem,
    load_snapshot,
    restore_snapshot,
    save_snapshot,
    snapshot_to_dict,
    uniform_dataset,
)
from repro.dfs.chunk import MB, dataset_from_sizes


@pytest.fixture
def fs():
    f = DistributedFileSystem(ClusterSpec.homogeneous(8), seed=67)
    f.put_dataset(uniform_dataset("a", 12, chunk_size=4 * MB))
    f.put_dataset(dataset_from_sizes("b", [3 * MB, 9 * MB], chunk_size=4 * MB))
    return f


class TestRoundTrip:
    def test_layout_identical_after_restore(self, fs, tmp_path):
        path = save_snapshot(fs, tmp_path / "layout.json")
        fresh = DistributedFileSystem(ClusterSpec.homogeneous(8), seed=999)
        names = load_snapshot(fresh, path)
        assert sorted(names) == ["a", "b"]
        assert fresh.layout_snapshot() == fs.layout_snapshot()

    def test_datanode_inventories_match(self, fs, tmp_path):
        path = save_snapshot(fs, tmp_path / "layout.json")
        fresh = DistributedFileSystem(ClusterSpec.homogeneous(8), seed=999)
        load_snapshot(fresh, path)
        for nid in range(8):
            assert (
                sorted(fresh.datanodes[nid].chunk_ids, key=str)
                == sorted(fs.datanodes[nid].chunk_ids, key=str)
            )
            assert fresh.datanodes[nid].stored_bytes == fs.datanodes[nid].stored_bytes

    def test_multichunk_files_preserved(self, fs, tmp_path):
        path = save_snapshot(fs, tmp_path / "layout.json")
        fresh = DistributedFileSystem(ClusterSpec.homogeneous(8), seed=999)
        load_snapshot(fresh, path)
        meta = fresh.namenode.stat("b/part-00001")
        assert [c.size for c in meta.chunks] == [4 * MB, 4 * MB, MB]

    def test_matching_identical_on_restored_layout(self, fs, tmp_path):
        """The point of snapshots: the exact experiment replays elsewhere."""
        placement = ProcessPlacement.one_per_node(8)
        tasks = tasks_from_dataset(fs.dataset("a"))
        original = optimize_single_data(
            graph_from_filesystem(fs, tasks, placement), seed=3
        )
        path = save_snapshot(fs, tmp_path / "layout.json")
        fresh = DistributedFileSystem(ClusterSpec.homogeneous(8), seed=999)
        load_snapshot(fresh, path)
        replayed = optimize_single_data(
            graph_from_filesystem(fresh, tasks, placement), seed=3
        )
        assert replayed.assignment.tasks_of == original.assignment.tasks_of


class TestValidation:
    def test_larger_target_cluster_ok(self, fs, tmp_path):
        path = save_snapshot(fs, tmp_path / "layout.json")
        bigger = DistributedFileSystem(ClusterSpec.homogeneous(12), seed=0)
        load_snapshot(bigger, path)
        assert bigger.layout_snapshot() == fs.layout_snapshot()

    def test_smaller_target_rejected(self, fs, tmp_path):
        path = save_snapshot(fs, tmp_path / "layout.json")
        small = DistributedFileSystem(ClusterSpec.homogeneous(4), seed=0)
        with pytest.raises(ValueError, match="nodes"):
            load_snapshot(small, path)

    def test_unknown_node_id_rejected_before_storing(self, fs):
        """A snapshot naming a node the target lacks raises a ValueError
        naming that node, and stores nothing."""
        doc = snapshot_to_dict(fs)
        doc["num_nodes"] = 4
        key = next(iter(doc["locations"]))
        doc["locations"][key] = [9]
        small = DistributedFileSystem(ClusterSpec.homogeneous(4), seed=0)
        before = (
            small.namenode.list_datasets(),
            small.layout_token,
            small.replica_count_per_node(),
        )
        with pytest.raises(ValueError, match=r"node ids \[.*9\]"):
            restore_snapshot(small, doc)
        assert (
            small.namenode.list_datasets(),
            small.layout_token,
            small.replica_count_per_node(),
        ) == before

    def test_duplicate_restore_rejected(self, fs, tmp_path):
        path = save_snapshot(fs, tmp_path / "layout.json")
        fresh = DistributedFileSystem(ClusterSpec.homogeneous(8), seed=0)
        load_snapshot(fresh, path)
        with pytest.raises(ValueError):
            load_snapshot(fresh, path)

    def test_wrong_kind_rejected(self, fs):
        with pytest.raises(ValueError, match="not a layout snapshot"):
            restore_snapshot(fs, {"format": 1, "kind": "assignment"})

    def test_wrong_version_rejected(self, fs):
        with pytest.raises(ValueError, match="unsupported"):
            restore_snapshot(fs, {"format": 9, "kind": "layout_snapshot"})

    def test_snapshot_is_json_serialisable(self, fs):
        json.dumps(snapshot_to_dict(fs))

    def test_malformed_chunk_key_rejected(self, fs):
        doc = snapshot_to_dict(fs)
        doc["locations"]["nokey"] = [0]
        fresh = DistributedFileSystem(ClusterSpec.homogeneous(8), seed=0)
        with pytest.raises(ValueError, match="malformed chunk key"):
            restore_snapshot(fresh, doc)
