"""Tests for the flow-based single-data optimizer (§IV-B)."""

import pytest

from repro.core.assignment import equal_quotas, locality_fraction
from repro.core.bipartite import ProcessPlacement, build_locality_graph, graph_from_filesystem
from repro.core.baselines import rank_interval_assignment
from repro.core.single_data import optimize_single_data
from repro.core.tasks import Task, tasks_from_dataset
from repro.dfs import ClusterSpec, DistributedFileSystem, SkewedPlacement, uniform_dataset
from repro.dfs.chunk import MB, ChunkId


def _graph(locations, sizes, num_nodes):
    tasks = [Task(i, (cid,)) for i, cid in enumerate(sorted(locations, key=str))]
    return build_locality_graph(
        tasks, locations, sizes, ProcessPlacement.one_per_node(num_nodes)
    )


class TestSmallCases:
    def test_perfect_matching_found(self):
        """Figure 2(left): naive reads pile on node 0; matching avoids it."""
        locations = {
            ChunkId("a", 0): (0, 1),
            ChunkId("b", 0): (0,),
            ChunkId("c", 0): (0, 1),
        }
        sizes = {cid: MB for cid in locations}
        # 2 processes, 3 tasks -> quotas [2, 1]
        graph = _graph(locations, sizes, 2)
        result = optimize_single_data(graph)
        assert result.full_matching
        assert locality_fraction(result.assignment, graph) == 1.0
        result.assignment.validate(3, quotas=equal_quotas(3, 2))

    def test_unmatchable_task_falls_back(self):
        """A task with no replica on any process node can't be local."""
        locations = {ChunkId("a", 0): (1,)}
        sizes = {ChunkId("a", 0): MB}
        tasks = [Task(0, (ChunkId("a", 0),))]
        graph = build_locality_graph(
            tasks, locations, sizes, ProcessPlacement((0,))
        )
        result = optimize_single_data(graph)
        assert not result.full_matching
        assert result.fallback_tasks == frozenset({0})
        result.assignment.validate(1)

    def test_quota_respected_when_one_node_has_everything(self):
        locations = {ChunkId(f"c{i}", 0): (0,) for i in range(4)}
        sizes = {cid: MB for cid in locations}
        graph = _graph(locations, sizes, 2)
        result = optimize_single_data(graph)
        loads = [len(result.assignment.tasks_of[r]) for r in range(2)]
        assert loads == [2, 2]
        # Only two tasks can be matched locally (node 0 quota).
        assert result.max_flow == 2

    def test_custom_quotas(self):
        locations = {ChunkId(f"c{i}", 0): (0, 1) for i in range(4)}
        sizes = {cid: MB for cid in locations}
        graph = _graph(locations, sizes, 2)
        result = optimize_single_data(graph, quotas=[3, 1])
        assert len(result.assignment.tasks_of[0]) <= 3
        assert result.assignment.num_tasks == 4

    def test_insufficient_quota_rejected(self):
        locations = {ChunkId("a", 0): (0,), ChunkId("b", 0): (0,)}
        sizes = {cid: MB for cid in locations}
        graph = _graph(locations, sizes, 1)
        with pytest.raises(ValueError, match="total quota"):
            optimize_single_data(graph, quotas=[1])

    def test_invalid_args(self):
        locations = {ChunkId("a", 0): (0,)}
        graph = _graph(locations, {ChunkId("a", 0): MB}, 1)
        with pytest.raises(ValueError):
            optimize_single_data(graph, quotas=[1, 1])
        with pytest.raises(ValueError):
            optimize_single_data(graph, quotas=[-1])
        with pytest.raises(ValueError):
            optimize_single_data(graph, capacity_mode="nope")
        with pytest.raises(ValueError):
            optimize_single_data(graph, fallback="nope")


class TestOnFilesystem:
    @pytest.fixture
    def setup(self):
        spec = ClusterSpec.homogeneous(16)
        fs = DistributedFileSystem(spec, seed=5)
        ds = uniform_dataset("d", 160)
        fs.put_dataset(ds)
        placement = ProcessPlacement.one_per_node(16)
        tasks = tasks_from_dataset(ds)
        graph = graph_from_filesystem(fs, tasks, placement)
        return graph

    def test_beats_rank_interval_baseline(self, setup):
        graph = setup
        result = optimize_single_data(graph)
        base = rank_interval_assignment(160, 16)
        assert locality_fraction(result.assignment, graph) > locality_fraction(
            base, graph
        )

    def test_usually_full_matching_with_r3(self, setup):
        # 10 chunks/process with r=3 virtually always admits a full matching.
        result = optimize_single_data(setup)
        assert result.full_matching
        assert locality_fraction(result.assignment, graph=setup) == 1.0

    def test_equal_loads(self, setup):
        result = optimize_single_data(setup)
        loads = [len(ts) for ts in result.assignment.tasks_of.values()]
        assert all(l == 10 for l in loads)

    def test_algorithms_agree_on_flow_value(self, setup):
        r1 = optimize_single_data(setup, algorithm="dinic")
        r2 = optimize_single_data(setup, algorithm="edmonds_karp")
        assert r1.max_flow == r2.max_flow

    def test_bytes_mode_equivalent_on_uniform_files(self, setup):
        r_unit = optimize_single_data(setup, capacity_mode="unit")
        r_bytes = optimize_single_data(setup, capacity_mode="bytes")
        assert locality_fraction(r_unit.assignment, setup) == pytest.approx(
            locality_fraction(r_bytes.assignment, setup)
        )
        r_bytes.assignment.validate(160, quotas=equal_quotas(160, 16))

    def test_fallback_policies_both_complete(self, setup):
        for policy in ("random", "least_loaded"):
            result = optimize_single_data(setup, fallback=policy)
            result.assignment.validate(160, quotas=equal_quotas(160, 16))

    def test_deterministic_given_seed(self, setup):
        a = optimize_single_data(setup, seed=3).assignment.tasks_of
        b = optimize_single_data(setup, seed=3).assignment.tasks_of
        assert a == b


class TestSkewedLayouts:
    def test_skew_forces_fallback_but_stays_valid(self):
        """§IV-B: node addition makes full matching impossible; the random
        fallback still fills every quota."""
        spec = ClusterSpec.homogeneous(16)
        fs = DistributedFileSystem(
            spec, seed=5, placement=SkewedPlacement(excluded_fraction=0.5)
        )
        ds = uniform_dataset("d", 160)
        fs.put_dataset(ds)
        placement = ProcessPlacement.one_per_node(16)
        graph = graph_from_filesystem(fs, tasks_from_dataset(ds), placement)
        result = optimize_single_data(graph)
        assert not result.full_matching
        assert len(result.fallback_tasks) > 0
        result.assignment.validate(160, quotas=equal_quotas(160, 16))
        # Excluded nodes have no local data at all.
        assert graph.local_bytes_of_process(15) == 0

    def test_max_flow_is_optimal_vs_networkx(self):
        import networkx as nx

        spec = ClusterSpec.homogeneous(8)
        fs = DistributedFileSystem(spec, seed=9)
        ds = uniform_dataset("d", 40)
        fs.put_dataset(ds)
        placement = ProcessPlacement.one_per_node(8)
        graph = graph_from_filesystem(fs, tasks_from_dataset(ds), placement)
        result = optimize_single_data(graph)

        g = nx.DiGraph()
        quotas = equal_quotas(40, 8)
        for r in range(8):
            g.add_edge("s", f"p{r}", capacity=quotas[r])
            for t in graph.edges_of_process(r):
                g.add_edge(f"p{r}", f"f{t}", capacity=1)
        for t in range(40):
            g.add_edge(f"f{t}", "t", capacity=1)
        assert result.max_flow == nx.maximum_flow_value(g, "s", "t")
