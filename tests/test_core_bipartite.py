"""Tests for the locality graph (§IV-A, Figure 4)."""

import pytest

from repro.core.bipartite import (
    ProcessPlacement,
    build_locality_graph,
    graph_from_filesystem,
)
from repro.core.tasks import Task, tasks_from_dataset
from repro.dfs.chunk import MB, ChunkId


class TestProcessPlacement:
    def test_one_per_node(self):
        p = ProcessPlacement.one_per_node(4)
        assert p.num_processes == 4
        assert [p.node_of(r) for r in range(4)] == [0, 1, 2, 3]

    def test_k_per_node(self):
        p = ProcessPlacement.k_per_node(3, 2)
        assert p.num_processes == 6
        assert p.nodes == (0, 0, 1, 1, 2, 2)
        assert p.ranks_on_node() == {0: [0, 1], 1: [2, 3], 2: [4, 5]}

    def test_invalid(self):
        with pytest.raises(ValueError):
            ProcessPlacement(())
        with pytest.raises(ValueError):
            ProcessPlacement((0, -1))
        with pytest.raises(ValueError):
            ProcessPlacement.one_per_node(0)
        with pytest.raises(ValueError):
            ProcessPlacement.k_per_node(2, 0)

    def test_node_of_range(self):
        p = ProcessPlacement.one_per_node(2)
        with pytest.raises(KeyError):
            p.node_of(5)


def _tiny_graph():
    """The Figure-2(left)-style scenario: 2 nodes, 3 chunks."""
    tasks = [
        Task(0, (ChunkId("a", 0),)),
        Task(1, (ChunkId("b", 0),)),
        Task(2, (ChunkId("c", 0),)),
    ]
    locations = {
        ChunkId("a", 0): (0,),
        ChunkId("b", 0): (0, 1),
        ChunkId("c", 0): (1,),
    }
    sizes = {cid: MB for cid in locations}
    placement = ProcessPlacement.one_per_node(2)
    return build_locality_graph(tasks, locations, sizes, placement), tasks


class TestBuildGraph:
    def test_edges_follow_colocations(self):
        graph, _ = _tiny_graph()
        assert graph.edge_weight(0, 0) == MB  # a on node 0
        assert graph.edge_weight(0, 1) == MB  # b replica on node 0
        assert graph.edge_weight(0, 2) == 0  # c not on node 0
        assert graph.edge_weight(1, 2) == MB

    def test_ranks_of_task(self):
        graph, _ = _tiny_graph()
        assert graph.ranks_of_task(1) == [0, 1]
        assert graph.ranks_of_task(0) == [0]

    def test_counts(self):
        graph, _ = _tiny_graph()
        assert graph.num_processes == 2
        assert graph.num_tasks == 3
        assert graph.num_edges == 4

    def test_task_bytes_and_total(self):
        graph, _ = _tiny_graph()
        assert graph.task_bytes(0) == MB
        assert graph.total_bytes() == 3 * MB

    def test_local_bytes_of_process(self):
        graph, _ = _tiny_graph()
        assert graph.local_bytes_of_process(0) == 2 * MB
        assert graph.local_bytes_of_process(1) == 2 * MB

    def test_multi_input_weights_accumulate(self):
        tasks = [Task(0, (ChunkId("a", 0), ChunkId("b", 0)))]
        locations = {ChunkId("a", 0): (0,), ChunkId("b", 0): (0, 1)}
        sizes = {ChunkId("a", 0): 3 * MB, ChunkId("b", 0): 2 * MB}
        graph = build_locality_graph(
            tasks, locations, sizes, ProcessPlacement.one_per_node(2)
        )
        assert graph.edge_weight(0, 0) == 5 * MB
        assert graph.edge_weight(1, 0) == 2 * MB

    def test_multiple_ranks_per_node_share_edges(self):
        tasks = [Task(0, (ChunkId("a", 0),))]
        locations = {ChunkId("a", 0): (0,)}
        sizes = {ChunkId("a", 0): MB}
        graph = build_locality_graph(
            tasks, locations, sizes, ProcessPlacement.k_per_node(1, 2)
        )
        assert graph.edge_weight(0, 0) == MB
        assert graph.edge_weight(1, 0) == MB

    def test_missing_layout_rejected(self):
        tasks = [Task(0, (ChunkId("a", 0),))]
        with pytest.raises(KeyError):
            build_locality_graph(tasks, {}, {ChunkId("a", 0): MB},
                                 ProcessPlacement.one_per_node(1))

    def test_missing_size_rejected(self):
        tasks = [Task(0, (ChunkId("a", 0),))]
        with pytest.raises(KeyError):
            build_locality_graph(tasks, {ChunkId("a", 0): (0,)}, {},
                                 ProcessPlacement.one_per_node(1))

    def test_nonsequential_task_ids_rejected(self):
        tasks = [Task(1, (ChunkId("a", 0),))]
        with pytest.raises(ValueError):
            build_locality_graph(tasks, {ChunkId("a", 0): (0,)},
                                 {ChunkId("a", 0): MB},
                                 ProcessPlacement.one_per_node(1))


class TestGraphFromFilesystem:
    def test_consistent_with_namenode(self, fs8, placement8):
        tasks = tasks_from_dataset(fs8.dataset("data"))
        graph = graph_from_filesystem(fs8, tasks, placement8)
        layout = fs8.layout_snapshot()
        for t in tasks:
            cid = t.inputs[0]
            for node in layout[cid]:
                assert graph.edge_weight(node, t.task_id) == fs8.chunk(cid).size

    def test_every_task_has_r_edges(self, fs8, placement8):
        """With one process per node, each single-chunk task has exactly r edges."""
        tasks = tasks_from_dataset(fs8.dataset("data"))
        graph = graph_from_filesystem(fs8, tasks, placement8)
        for t in tasks:
            assert len(graph.ranks_of_task(t.task_id)) == fs8.replication
