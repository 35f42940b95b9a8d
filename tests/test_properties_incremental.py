"""Property-based tests for incremental re-matching."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ProcessPlacement,
    equal_quotas,
    graph_from_filesystem,
    optimize_single_data,
    rematch_incremental,
    tasks_from_dataset,
)
from repro.dfs import ClusterSpec, DistributedFileSystem, uniform_dataset
from repro.dfs.chunk import MB


def _build(m: int, n: int, seed: int):
    fs = DistributedFileSystem(ClusterSpec.homogeneous(m), seed=seed)
    fs.put_dataset(uniform_dataset("d", n, chunk_size=4 * MB))
    placement = ProcessPlacement.one_per_node(m)
    tasks = tasks_from_dataset(fs.dataset("d"))
    return fs, placement, tasks


@given(
    st.integers(min_value=3, max_value=8),
    st.integers(min_value=6, max_value=32),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=7),
)
@settings(max_examples=25, deadline=None)
def test_incremental_valid_and_kept_tasks_stay(m, n, seed, victim):
    """After any single node's replicas vanish: the repair is valid, kept
    tasks keep their owner, and moved ∪ kept partitions the task set."""
    victim = victim % m
    fs, placement, tasks = _build(m, n, seed)
    graph = graph_from_filesystem(fs, tasks, placement)
    base = optimize_single_data(graph, seed=seed)
    old_owner = base.assignment.process_of()

    fs.namenode.drop_node_replicas(victim)
    new_graph = graph_from_filesystem(fs, tasks, placement)
    result = rematch_incremental(new_graph, base.assignment, seed=seed)

    result.assignment.validate(n, quotas=equal_quotas(n, m))
    new_owner = result.assignment.process_of()
    assert result.kept_tasks | result.moved_tasks == set(range(n))
    assert not (result.kept_tasks & result.moved_tasks)
    for t in result.kept_tasks:
        assert new_owner[t] == old_owner[t]
    for t in result.moved_tasks:
        assert new_owner[t] != old_owner[t]


@given(
    st.integers(min_value=3, max_value=8),
    st.integers(min_value=6, max_value=32),
    st.integers(min_value=0, max_value=500),
)
@settings(max_examples=20, deadline=None)
def test_incremental_noop_when_nothing_changed(m, n, seed):
    fs, placement, tasks = _build(m, n, seed)
    graph = graph_from_filesystem(fs, tasks, placement)
    base = optimize_single_data(graph, seed=seed)
    result = rematch_incremental(graph, base.assignment, seed=seed)
    assert result.churn == 0
    assert result.assignment.tasks_of == base.assignment.tasks_of


@given(
    st.integers(min_value=4, max_value=8),
    st.integers(min_value=8, max_value=32),
    st.integers(min_value=0, max_value=300),
)
@settings(max_examples=15, deadline=None)
def test_incremental_churn_bounded_by_displacement(m, n, seed):
    """Churn cannot exceed the displaced set: tasks that stayed local and
    within quota never move."""
    fs, placement, tasks = _build(m, n, seed)
    graph = graph_from_filesystem(fs, tasks, placement)
    base = optimize_single_data(graph, seed=seed)
    fs.namenode.drop_node_replicas(0)
    new_graph = graph_from_filesystem(fs, tasks, placement)

    # Upper bound: tasks whose owner lost co-location under the new graph.
    owner = base.assignment.process_of()
    displaced_bound = sum(
        1 for t in range(n) if new_graph.edge_weight(owner[t], t) == 0
    )
    result = rematch_incremental(new_graph, base.assignment, seed=seed)
    assert result.churn <= displaced_bound
