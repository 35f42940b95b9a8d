"""Property-based tests for the write pipeline and dispatch policies."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProcessPlacement, tasks_from_dataset
from repro.core.delay_scheduling import DelaySchedulingPolicy, LocalityGreedyPolicy
from repro.core.bipartite import graph_from_filesystem
from repro.dfs import (
    ClusterSpec,
    DistributedFileSystem,
    HdfsWriterLocalPlacement,
    uniform_dataset,
)
from repro.dfs.chunk import MB
from repro.simulate import DatasetIngest, ParallelReadRun
from repro.simulate.ingest import pipeline_path


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=500),
)
@settings(max_examples=20, deadline=None)
def test_ingest_conserves_data_and_registers_replicas(m, r, n, seed):
    r = min(r, m)
    fs = DistributedFileSystem(
        ClusterSpec.homogeneous(m),
        replication=r,
        placement=HdfsWriterLocalPlacement(),
        seed=seed,
    )
    ds = uniform_dataset("w", n, chunk_size=4 * MB)
    writers = ProcessPlacement.one_per_node(m)
    result = DatasetIngest(fs, writers, ds, seed=seed).run()
    assert len(result.records) == n
    assert result.bytes_written == n * 4 * MB
    layout = fs.layout_snapshot()
    for cid, nodes in layout.items():
        assert len(nodes) == r
        assert len(set(nodes)) == r
        for node in nodes:
            assert fs.datanodes[node].holds(cid)
    # First replica always on the writer (writer-local placement).
    for rec in result.records:
        assert rec.pipeline[0] == rec.writer_node
    # Write durations positive and ordered sanely.
    d = result.durations()
    assert (d > 0).all()


@given(
    st.integers(min_value=0, max_value=20),
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=4,
             unique=True),
)
@settings(max_examples=40, deadline=None)
def test_pipeline_path_no_duplicates_and_all_disks(writer, replicas):
    path = pipeline_path(writer, tuple(replicas))
    assert len(set(path)) == len(path)
    for node in replicas:
        assert f"disk:{node}" in path


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=0, max_value=500),
    st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_dispatch_policies_cover_every_task_exactly_once(m, n, seed, use_delay):
    fs = DistributedFileSystem(ClusterSpec.homogeneous(m), seed=seed)
    fs.put_dataset(uniform_dataset("d", n, chunk_size=4 * MB))
    placement = ProcessPlacement.one_per_node(m)
    tasks = tasks_from_dataset(fs.dataset("d"))
    graph = graph_from_filesystem(fs, tasks, placement)
    if use_delay:
        policy = DelaySchedulingPolicy(
            graph, max_delay=0.5, poll_interval=0.25, seed=seed
        )
    else:
        policy = LocalityGreedyPolicy(graph, seed=seed)
    result = ParallelReadRun(fs, placement, tasks, policy, seed=seed).run()
    assert result.tasks_completed == n
    assert sorted(rec.task_id for rec in result.records) == list(range(n))
    assert result.local_bytes + result.remote_bytes == n * 4 * MB


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=4, max_value=16),
    st.integers(min_value=0, max_value=300),
)
@settings(max_examples=15, deadline=None)
def test_greedy_locality_beats_random_dispatch_on_average(m, n, seed):
    """Locality-greedy dispatch reads more locally than the random master
    in expectation.  (Per-instance it can lose on tiny pools: a worker with
    no local task grabs a random one that happened to be another worker's
    only local chunk — so the property is statistical, averaged over
    sub-seeds of the same layout family.)"""
    from repro.core import DefaultDynamicPolicy

    def run(policy_kind, sub):
        fs = DistributedFileSystem(ClusterSpec.homogeneous(m), seed=seed + sub)
        fs.put_dataset(uniform_dataset("d", n, chunk_size=4 * MB))
        placement = ProcessPlacement.one_per_node(m)
        tasks = tasks_from_dataset(fs.dataset("d"))
        graph = graph_from_filesystem(fs, tasks, placement)
        if policy_kind == "greedy":
            policy = LocalityGreedyPolicy(graph, seed=seed + sub)
        else:
            policy = DefaultDynamicPolicy(n, mode="random", seed=seed + sub)
        return ParallelReadRun(fs, placement, tasks, policy, seed=seed + sub).run()

    greedy = np.mean([run("greedy", s).locality_fraction for s in range(5)])
    random_ = np.mean([run("random", s).locality_fraction for s in range(5)])
    assert greedy >= random_ - 0.1
