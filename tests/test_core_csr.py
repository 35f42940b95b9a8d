"""CSR locality-graph storage and the snapshot→graph cache (PR 5)."""

from __future__ import annotations

import pytest

from repro.core import (
    FlowNetwork,
    LocalityCSR,
    LocalityGraph,
    ProcessPlacement,
    build_csr,
    clear_graph_cache,
    csr_from_rows,
    graph_cache_stats,
    graph_from_filesystem,
    tasks_from_dataset,
)
from repro.core.bipartite import GRAPH_CACHE_CAPACITY
from repro.core.perf import SchedPerf
from repro.core.tasks import Task
from repro.dfs import ClusterSpec, DistributedFileSystem, uniform_dataset
from repro.dfs.chunk import MB, ChunkId


def _workload(num_nodes: int = 8, chunks: int = 24, seed: int = 7):
    fs = DistributedFileSystem(ClusterSpec.homogeneous(num_nodes), seed=seed)
    fs.put_dataset(uniform_dataset("d", chunks, chunk_size=16 * MB))
    tasks = tasks_from_dataset(uniform_dataset("d", chunks, chunk_size=16 * MB))
    placement = ProcessPlacement.one_per_node(num_nodes)
    return fs, tasks, placement


def _graph_inputs(fs, tasks):
    locations = fs.layout_snapshot()
    sizes = {cid: fs.chunk(cid).size for t in tasks for cid in t.inputs}
    return locations, sizes


class TestBuildCsr:
    def test_ptr_arrays_are_monotonic_and_bound_edges(self):
        fs, tasks, placement = _workload()
        locations, sizes = _graph_inputs(fs, tasks)
        csr = build_csr(tasks, locations, sizes, placement)
        assert csr.proc_ptr[0] == 0 and csr.task_ptr[0] == 0
        assert csr.proc_ptr[-1] == csr.num_edges == csr.task_ptr[-1]
        assert csr.proc_ptr == sorted(csr.proc_ptr)
        assert csr.task_ptr == sorted(csr.task_ptr)
        assert len(csr.proc_task) == len(csr.proc_weight) == csr.num_edges
        assert len(csr.task_rank) == len(csr.task_weight) == csr.num_edges

    def test_process_rows_ascend_by_task_id_task_rows_by_rank(self):
        fs, tasks, placement = _workload()
        locations, sizes = _graph_inputs(fs, tasks)
        csr = build_csr(tasks, locations, sizes, placement)
        for rank in range(csr.num_processes):
            row, _ = csr.proc_row(rank)
            assert row == sorted(row)
        for tid in range(csr.num_tasks):
            row, _ = csr.task_row(tid)
            assert row == sorted(row)

    def test_both_sides_hold_the_same_edge_set(self):
        fs, tasks, placement = _workload()
        locations, sizes = _graph_inputs(fs, tasks)
        csr = build_csr(tasks, locations, sizes, placement)
        proc_side = {
            (rank, t): w
            for rank in range(csr.num_processes)
            for t, w in zip(*csr.proc_row(rank))
        }
        task_side = {
            (r, tid): w
            for tid in range(csr.num_tasks)
            for r, w in zip(*csr.task_row(tid))
        }
        assert proc_side == task_side
        assert len(proc_side) == csr.num_edges

    def test_rejects_non_contiguous_task_ids(self):
        fs, tasks, placement = _workload()
        locations, sizes = _graph_inputs(fs, tasks)
        shuffled = list(reversed(tasks))
        with pytest.raises(ValueError, match="task ids"):
            build_csr(shuffled, locations, sizes, placement)

    def test_rejects_missing_layout_and_size(self):
        placement = ProcessPlacement.one_per_node(2)
        cid = ChunkId("x", 0)
        tasks = [Task(0, (cid,))]
        with pytest.raises(KeyError, match="layout"):
            build_csr(tasks, {}, {cid: MB}, placement)
        with pytest.raises(KeyError, match="size"):
            build_csr(tasks, {cid: (0,)}, {}, placement)


class TestCsrFromRows:
    def test_preserves_row_insertion_order(self):
        colocated = {0: {3: 10, 1: 20}, 1: {2: 5}}
        task_ranks = {1: [0], 2: [1], 3: [0]}
        csr = csr_from_rows(2, 4, colocated, task_ranks)
        # Process row 0 keeps the dict's 3-then-1 insertion order.
        assert csr.proc_row(0) == ([3, 1], [10, 20])
        assert csr.proc_row(1) == ([2], [5])
        assert csr.task_row(3) == ([0], [10])

    def test_dict_constructed_graph_round_trips_through_csr(self):
        colocated = {0: {0: 7, 2: 9}, 1: {1: 4}}
        task_ranks = {0: [0], 1: [1], 2: [0]}
        sizes = {ChunkId("a", i): 16 * MB for i in range(3)}
        tasks = [Task(i, (ChunkId("a", i),)) for i in range(3)]
        graph = LocalityGraph(
            placement=ProcessPlacement.one_per_node(2),
            tasks=tasks,
            sizes=sizes,
            colocated=colocated,
            task_ranks=task_ranks,
        )
        assert graph.csr.num_edges == 3
        assert graph.edges_of_process(0) == {0: 7, 2: 9}
        assert graph.ranks_of_task(2) == [0]
        assert graph.edge_weight(1, 1) == 4
        assert graph.edge_weight(1, 0) == 0


class TestGraphViewsAgree:
    def test_dict_views_mirror_the_csr(self):
        fs, tasks, placement = _workload()
        graph = graph_from_filesystem(fs, tasks, placement, cache=False)
        csr = graph.csr
        for rank in range(csr.num_processes):
            row_t, row_w = csr.proc_row(rank)
            assert graph.edges_of_process(rank) == dict(zip(row_t, row_w))
            assert graph.colocated[rank] == dict(zip(row_t, row_w))
        for tid in range(csr.num_tasks):
            row_r, _ = csr.task_row(tid)
            assert graph.ranks_of_task(tid) == row_r
            assert graph.task_ranks[tid] == row_r


class TestGraphCache:
    def setup_method(self):
        clear_graph_cache()

    def teardown_method(self):
        clear_graph_cache()

    def test_repeat_lookup_hits_and_returns_the_same_graph(self):
        fs, tasks, placement = _workload()
        perf = SchedPerf()
        g1 = graph_from_filesystem(fs, tasks, placement, perf=perf)
        g2 = graph_from_filesystem(fs, tasks, placement, perf=perf)
        assert g2 is g1
        stats = graph_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert perf.cache_hits == 1 and perf.cache_misses == 1
        assert perf.graph_builds == 1

    def test_layout_change_misses(self):
        fs, tasks, placement = _workload()
        g1 = graph_from_filesystem(fs, tasks, placement)
        fs.put_dataset(uniform_dataset("extra", 4, chunk_size=16 * MB))
        g2 = graph_from_filesystem(fs, tasks, placement)
        assert g2 is not g1
        assert graph_cache_stats()["misses"] == 2

    def test_different_task_objects_verify_by_equality(self):
        # Same layout/placement/count but different task content must not
        # be served the cached graph (the key omits the task list; lookup
        # re-verifies it by equality).
        fs, tasks, placement = _workload()
        g1 = graph_from_filesystem(fs, tasks, placement)
        # Equal-content copies of the original tasks hit.
        copies = [Task(t.task_id, t.inputs) for t in tasks]
        assert graph_from_filesystem(fs, copies, placement) is g1
        # Different content misses (and displaces the entry for this key).
        swapped = list(tasks)
        swapped[0] = Task(0, tasks[1].inputs)
        swapped[1] = Task(1, tasks[0].inputs)
        g2 = graph_from_filesystem(fs, swapped, placement)
        assert g2 is not g1

    def test_cache_false_bypasses(self):
        fs, tasks, placement = _workload()
        g1 = graph_from_filesystem(fs, tasks, placement)
        g2 = graph_from_filesystem(fs, tasks, placement, cache=False)
        assert g2 is not g1
        assert graph_cache_stats()["hits"] == 0

    def test_lru_evicts_oldest_entry(self):
        placement = ProcessPlacement.one_per_node(4)
        systems = []
        for seed in range(GRAPH_CACHE_CAPACITY + 1):
            fs = DistributedFileSystem(ClusterSpec.homogeneous(4), seed=seed)
            fs.put_dataset(uniform_dataset(f"d{seed}", 8, chunk_size=16 * MB))
            tasks = tasks_from_dataset(
                uniform_dataset(f"d{seed}", 8, chunk_size=16 * MB)
            )
            systems.append((fs, tasks))
            graph_from_filesystem(fs, tasks, placement)
        assert graph_cache_stats()["entries"] == GRAPH_CACHE_CAPACITY
        # The first (oldest) entry was evicted: looking it up re-builds.
        fs0, tasks0 = systems[0]
        graph_from_filesystem(fs0, tasks0, placement)
        assert graph_cache_stats()["misses"] == GRAPH_CACHE_CAPACITY + 2

    def test_scratch_is_per_graph_and_lazy(self):
        fs, tasks, placement = _workload()
        g1 = graph_from_filesystem(fs, tasks, placement)
        assert g1._scratch is None
        g1.scratch["k"] = 1
        assert graph_from_filesystem(fs, tasks, placement).scratch["k"] == 1
        g2 = graph_from_filesystem(fs, tasks, placement, cache=False)
        assert "k" not in g2.scratch


class TestSlots:
    """The hot-path containers must stay __dict__-free (satellite a)."""

    @pytest.mark.parametrize(
        "obj",
        [
            LocalityCSR(1, 1, [0, 0], [], [], [0, 0], [], []),
            LocalityGraph(
                ProcessPlacement.one_per_node(1), [], {}, {}, {}
            ),
            FlowNetwork(2),
        ],
        ids=["LocalityCSR", "LocalityGraph", "FlowNetwork"],
    )
    def test_no_instance_dict(self, obj):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            obj.arbitrary_new_attribute = 1
