"""Property-based tests for the Opass matching algorithms.

Invariants on random locality graphs:
* single-data: every task assigned exactly once; quotas respected; the
  locality achieved is at least the best baseline's; the matched-task count
  equals the max-flow value (optimal by LP duality, checked vs networkx);
* multi-data: exact quotas, full coverage, determinism, and the matching
  never loses to a random assignment in expectation.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import equal_quotas
from repro.core.baselines import rank_interval_assignment
from repro.core.bipartite import ProcessPlacement, build_locality_graph
from repro.core.multi_data import optimize_multi_data
from repro.core.single_data import optimize_single_data
from repro.core.tasks import Task
from repro.dfs.chunk import MB, ChunkId


@st.composite
def locality_graphs(draw):
    """Random single-input-task locality graphs."""
    m = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=1, max_value=24))
    r = draw(st.integers(min_value=1, max_value=min(3, m)))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    tasks, locations, sizes = [], {}, {}
    for t in range(n):
        cid = ChunkId(f"c{t}", 0)
        tasks.append(Task(t, (cid,)))
        locations[cid] = tuple(int(x) for x in rng.choice(m, size=r, replace=False))
        sizes[cid] = int(rng.integers(1, 5)) * MB
    placement = ProcessPlacement.one_per_node(m)
    return build_locality_graph(tasks, locations, sizes, placement)


@st.composite
def multi_graphs(draw):
    """Random multi-input-task locality graphs."""
    m = draw(st.integers(min_value=2, max_value=6))
    n = draw(st.integers(min_value=1, max_value=18))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    inputs_per_task = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(seed)
    tasks, locations, sizes = [], {}, {}
    for t in range(n):
        cids = []
        for j in range(inputs_per_task):
            cid = ChunkId(f"c{t}-{j}", 0)
            cids.append(cid)
            locations[cid] = tuple(
                int(x) for x in rng.choice(m, size=min(2, m), replace=False)
            )
            sizes[cid] = int(rng.integers(1, 40)) * MB
        tasks.append(Task(t, tuple(cids)))
    placement = ProcessPlacement.one_per_node(m)
    return build_locality_graph(tasks, locations, sizes, placement)


class TestSingleDataProperties:
    @given(locality_graphs())
    @settings(max_examples=50, deadline=None)
    def test_assignment_valid_and_quota_bound(self, graph):
        result = optimize_single_data(graph)
        quotas = equal_quotas(graph.num_tasks, graph.num_processes)
        result.assignment.validate(graph.num_tasks, quotas=quotas)

    @given(locality_graphs())
    @settings(max_examples=50, deadline=None)
    def test_matched_count_le_tasks_and_flow_consistent(self, graph):
        result = optimize_single_data(graph)
        assert 0 <= result.max_flow <= graph.num_tasks
        assert len(result.matched_tasks) <= result.max_flow or result.max_flow == 0
        assert len(result.matched_tasks) + len(result.fallback_tasks) == graph.num_tasks

    @given(locality_graphs())
    @settings(max_examples=50, deadline=None)
    def test_beats_or_ties_baselines_in_local_task_count(self, graph):
        """Unit-capacity max-flow maximises the number of locally-served
        tasks subject to the quota vector; any same-quota assignment (the
        rank-interval baseline in particular) can never serve more tasks
        locally."""
        from repro.core.assignment import fully_local_tasks

        result = optimize_single_data(graph)
        baseline = rank_interval_assignment(graph.num_tasks, graph.num_processes)
        assert len(fully_local_tasks(result.assignment, graph)) >= len(
            fully_local_tasks(baseline, graph)
        )

    @given(locality_graphs())
    @settings(max_examples=30, deadline=None)
    def test_optimal_vs_networkx(self, graph):
        import networkx as nx

        result = optimize_single_data(graph)
        quotas = equal_quotas(graph.num_tasks, graph.num_processes)
        g = nx.DiGraph()
        g.add_node("s")
        g.add_node("t")
        for r in range(graph.num_processes):
            g.add_edge("s", f"p{r}", capacity=quotas[r])
            for t in graph.edges_of_process(r):
                g.add_edge(f"p{r}", f"f{t}", capacity=1)
        for t in range(graph.num_tasks):
            g.add_edge(f"f{t}", "t", capacity=1)
        assert result.max_flow == nx.maximum_flow_value(g, "s", "t")

    @given(locality_graphs(), st.sampled_from(["dinic", "edmonds_karp"]))
    @settings(max_examples=30, deadline=None)
    def test_solver_choice_same_flow(self, graph, algorithm):
        a = optimize_single_data(graph, algorithm=algorithm)
        b = optimize_single_data(graph, algorithm="dinic")
        assert a.max_flow == b.max_flow

    @given(locality_graphs())
    @settings(max_examples=30, deadline=None)
    def test_matched_tasks_are_local(self, graph):
        result = optimize_single_data(graph)
        owner = result.assignment.process_of()
        for t in result.matched_tasks:
            assert graph.edge_weight(owner[t], t) > 0


class TestMultiDataProperties:
    @given(multi_graphs())
    @settings(max_examples=50, deadline=None)
    def test_exact_quotas_and_coverage(self, graph):
        result = optimize_multi_data(graph)
        quotas = equal_quotas(graph.num_tasks, graph.num_processes)
        result.assignment.validate(
            graph.num_tasks, quotas=quotas, exact_quota=True
        )

    @given(multi_graphs())
    @settings(max_examples=50, deadline=None)
    def test_local_bytes_consistent(self, graph):
        result = optimize_multi_data(graph)
        owner = result.assignment.process_of()
        recomputed = sum(graph.edge_weight(r, t) for t, r in owner.items())
        assert result.local_bytes == recomputed
        assert 0 <= result.local_bytes <= graph.total_bytes()

    @given(multi_graphs())
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, graph):
        a = optimize_multi_data(graph).assignment.tasks_of
        b = optimize_multi_data(graph).assignment.tasks_of
        assert a == b

    @given(multi_graphs())
    @settings(max_examples=30, deadline=None)
    def test_complexity_bound_respected(self, graph):
        """The paper's O(m·n) bound: no process proposes to a task twice."""
        result = optimize_multi_data(graph)
        assert result.proposals <= graph.num_processes * graph.num_tasks
        assert result.reassignments <= result.proposals

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=100))
    @settings(max_examples=20, deadline=None)
    def test_single_process_takes_everything(self, n, seed):
        rng = np.random.default_rng(seed)
        tasks, locations, sizes = [], {}, {}
        for t in range(n):
            cid = ChunkId(f"c{t}", 0)
            tasks.append(Task(t, (cid,)))
            locations[cid] = (0,)
            sizes[cid] = int(rng.integers(1, 10)) * MB
        graph = build_locality_graph(
            tasks, locations, sizes, ProcessPlacement.one_per_node(1)
        )
        result = optimize_multi_data(graph)
        assert result.assignment.tasks_of[0] is not None
        assert sorted(result.assignment.tasks_of[0]) == list(range(n))
        assert result.local_bytes == graph.total_bytes()
