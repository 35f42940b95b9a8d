"""Tests for MRAP-style data reconstruction."""

import pytest

from repro.core import (
    ProcessPlacement,
    graph_from_filesystem,
    locality_fraction,
    optimize_multi_data,
    tasks_from_dataset,
    tasks_from_datasets,
)
from repro.dfs import (
    ClusterSpec,
    DistributedFileSystem,
    reconstruct_for_tasks,
    uniform_dataset,
)
from repro.workloads import multi_input_datasets


@pytest.fixture
def env():
    fs = DistributedFileSystem(ClusterSpec.homogeneous(8), seed=47)
    datasets = multi_input_datasets(40)
    for ds in datasets:
        fs.put_dataset(ds)
    tasks = tasks_from_datasets(datasets)
    return fs, tasks


class TestReconstruction:
    def test_empty_tasks(self, env):
        fs, _ = env
        report = reconstruct_for_tasks(fs, [])
        assert report.num_copies == 0
        assert report.bytes_copied == 0

    def test_every_task_gets_an_anchor_with_all_inputs(self, env):
        fs, tasks = env
        report = reconstruct_for_tasks(fs, tasks)
        assert set(report.anchor_of) == {t.task_id for t in tasks}
        for task in tasks:
            anchor = report.anchor_of[task.task_id]
            for cid in task.inputs:
                assert anchor in fs.namenode.locations_of(cid)
                assert fs.datanodes[anchor].holds(cid)

    def test_bytes_copied_consistent(self, env):
        fs, tasks = env
        report = reconstruct_for_tasks(fs, tasks)
        expected = sum(fs.chunk(cid).size for cid, _ in report.copies)
        assert report.bytes_copied == expected
        assert report.bytes_copied > 0  # scattered inputs need copies

    def test_anchor_balance_cap(self, env):
        fs, tasks = env
        report = reconstruct_for_tasks(fs, tasks)
        counts: dict[int, int] = {}
        for anchor in report.anchor_of.values():
            counts[anchor] = counts.get(anchor, 0) + 1
        assert max(counts.values()) <= -(-len(tasks) // 8)

    def test_custom_cap_validated(self, env):
        fs, tasks = env
        with pytest.raises(ValueError):
            reconstruct_for_tasks(fs, tasks, max_tasks_per_node=0)

    def test_cap_too_tight_raises(self, env):
        fs, tasks = env
        # 40 tasks, 8 nodes, cap 1 -> only 8 anchors available.
        with pytest.raises(RuntimeError, match="anchor cap"):
            reconstruct_for_tasks(fs, tasks, max_tasks_per_node=1)

    def test_cap_too_tight_copies_nothing(self):
        """The cap is checked before the first copy: a rejected call
        leaves every replica where it was."""
        fs = DistributedFileSystem(ClusterSpec.homogeneous(4), seed=1)
        data = uniform_dataset("d", 12)
        fs.put_dataset(data)
        before = (fs.layout_token, fs.replica_count_per_node())
        with pytest.raises(RuntimeError, match="anchor cap"):
            reconstruct_for_tasks(fs, tasks_from_dataset(data), max_tasks_per_node=1)
        assert (fs.layout_token, fs.replica_count_per_node()) == before

    def test_reconstruction_enables_full_matching(self, env):
        """After co-location, Algorithm 1 recovers (near-)full locality —
        the §V-C 'reconstruction may be needed' claim, quantified."""
        fs, tasks = env
        placement = ProcessPlacement.one_per_node(8)
        before_graph = graph_from_filesystem(fs, tasks, placement)
        before = locality_fraction(
            optimize_multi_data(before_graph).assignment, before_graph
        )
        reconstruct_for_tasks(fs, tasks)
        after_graph = graph_from_filesystem(fs, tasks, placement)
        after = locality_fraction(
            optimize_multi_data(after_graph).assignment, after_graph
        )
        assert before < 0.9
        assert after > 0.95
