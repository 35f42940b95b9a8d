"""Differential pinning of the PR-5 scheduler kernels.

Two layers keep the CSR/array rewrites honest:

* randomized differential tests against :mod:`tests.reference_matching`
  (a frozen snapshot of the pre-PR dict/dataclass kernels) — every
  output must match bit-for-bit, including on the warm paths (cached
  graph, per-graph flow memo) that the reference never had;
* golden-pin tests that re-derive the committed
  ``tests/data/golden_matching_*.json`` fixtures through the production
  entry points (the pytest twin of ``make_golden_matching.py --check``).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    FlowNetwork,
    ProcessPlacement,
    SchedPerf,
    build_locality_graph,
    clear_graph_cache,
    graph_from_filesystem,
    optimize_multi_data,
    optimize_single_data,
    plan_remote_reads,
    tasks_from_dataset,
)
from repro.core.tasks import Task
from repro.dfs import ClusterSpec, DistributedFileSystem
from repro.dfs.chunk import MB, ChunkId
from repro.draws import RAW_BLOCK
from repro.metrics import sched_perf_summary
from repro.simulate import ParallelReadRun, StaticSource
from repro.workloads import single_data_workload

from .reference_matching import (
    RefFlowNetwork,
    build_locality_graph_ref,
    optimize_multi_data_ref,
    optimize_single_data_ref,
    plan_remote_reads_ref,
)

DATA = Path(__file__).parent / "data"


def _random_layout(num_nodes: int, num_tasks: int, seed: int):
    """Random multi-chunk tasks over a random replicated layout."""
    rng = np.random.default_rng(seed)
    tasks, locations, sizes = [], {}, {}
    for t in range(num_tasks):
        inputs = []
        for j in range(int(rng.integers(1, 4))):
            cid = ChunkId(f"t{t}", j)
            repl = int(rng.integers(1, 4))
            locations[cid] = tuple(
                int(x) for x in rng.choice(num_nodes, size=repl, replace=False)
            )
            sizes[cid] = int(rng.integers(1, 64)) * MB
            inputs.append(cid)
        tasks.append(Task(t, tuple(inputs)))
    return tasks, locations, sizes


class TestGraphBuildDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_csr_build_matches_reference(self, seed):
        tasks, locations, sizes = _random_layout(9, 40, seed)
        placement = ProcessPlacement.one_per_node(9)
        new = build_locality_graph(tasks, locations, sizes, placement)
        ref = build_locality_graph_ref(tasks, locations, sizes, placement)
        assert new.num_edges == ref.num_edges
        for rank in range(placement.num_processes):
            assert new.edges_of_process(rank) == ref.edges_of_process(rank)
        for tid in range(len(tasks)):
            assert new.ranks_of_task(tid) == ref.ranks_of_task(tid)
            assert new.task_bytes(tid) == ref.task_bytes(tid)
        assert new.total_bytes() == ref.total_bytes()

    def test_k_per_node_placement_matches_reference(self):
        tasks, locations, sizes = _random_layout(5, 30, 11)
        placement = ProcessPlacement.k_per_node(5, 3)
        new = build_locality_graph(tasks, locations, sizes, placement)
        ref = build_locality_graph_ref(tasks, locations, sizes, placement)
        for rank in range(placement.num_processes):
            assert new.edges_of_process(rank) == ref.edges_of_process(rank)


def _assignments_equal(a, b):
    return {r: list(ts) for r, ts in a.tasks_of.items()} == {
        r: list(ts) for r, ts in b.tasks_of.items()
    }


class TestSingleDataDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize("mode", ["unit", "bytes"])
    @pytest.mark.parametrize("algorithm", ["dinic", "edmonds_karp"])
    def test_matches_reference_cold_warm_and_replayed(
        self, seed, mode, algorithm
    ):
        tasks, locations, sizes = _random_layout(8, 32, seed + 100)
        placement = ProcessPlacement.one_per_node(8)
        graph = build_locality_graph(tasks, locations, sizes, placement)
        ref_graph = build_locality_graph_ref(tasks, locations, sizes, placement)
        other = "edmonds_karp" if algorithm == "dinic" else "dinic"
        # Even quotas (None) and an uneven vector with slack on rank 0.
        uneven = [6, 4, 4, 4, 4, 4, 4, 4]
        # Rounds on one graph that alternate the solver and the quota
        # vector, so every memo key is first missed, then hit, with other
        # keys solved in between.  Each round must equal the reference.
        rounds = [
            (algorithm, None, "cold"),
            (other, None, "cold, other solver"),
            (algorithm, uneven, "cold, other quotas"),
            (algorithm, None, "hit"),
            (other, uneven, "cold, other solver and quotas"),
            (other, None, "hit, other solver"),
            (algorithm, uneven, "hit, other quotas"),
            (other, uneven, "hit, other solver and quotas"),
        ]
        perf = SchedPerf()
        hits = 0
        for solver, quotas, attempt in rounds:
            ref_asn, ref_flow, ref_matched, ref_pending = (
                optimize_single_data_ref(
                    ref_graph, quotas=quotas, capacity_mode=mode,
                    algorithm=solver, seed=seed,
                )
            )
            r = optimize_single_data(
                graph, quotas=quotas, capacity_mode=mode, algorithm=solver,
                seed=seed, perf=perf,
            )
            assert r.max_flow == ref_flow, attempt
            assert _assignments_equal(r.assignment, ref_asn), attempt
            assert r.matched_tasks == ref_matched, attempt
            assert r.fallback_tasks == ref_pending, attempt
            hits += attempt.startswith("hit")
            assert perf.solve_replays == hits, attempt

    @pytest.mark.parametrize("fallback", ["random", "least_loaded"])
    def test_fallback_policies_match_reference(self, fallback):
        tasks, locations, sizes = _random_layout(10, 50, 21)
        placement = ProcessPlacement.one_per_node(10)
        graph = build_locality_graph(tasks, locations, sizes, placement)
        ref_graph = build_locality_graph_ref(tasks, locations, sizes, placement)
        ref_asn, *_ = optimize_single_data_ref(ref_graph, fallback=fallback, seed=3)
        r = optimize_single_data(graph, fallback=fallback, seed=3)
        assert _assignments_equal(r.assignment, ref_asn)


def _check_multi_data(num_nodes, num_tasks, layout_seed, seed, *, quotas=None):
    """Run Algorithm 1 and the reference on one random layout; assert they agree."""
    tasks, locations, sizes = _random_layout(num_nodes, num_tasks, layout_seed)
    placement = ProcessPlacement.one_per_node(num_nodes)
    graph = build_locality_graph(tasks, locations, sizes, placement)
    ref_graph = build_locality_graph_ref(tasks, locations, sizes, placement)
    ref_asn, ref_local, ref_re, ref_prop = optimize_multi_data_ref(
        ref_graph, quotas=quotas, seed=seed
    )
    r = optimize_multi_data(graph, quotas=quotas, seed=seed)
    assert _assignments_equal(r.assignment, ref_asn)
    assert r.local_bytes == ref_local
    assert r.reassignments == ref_re
    assert r.proposals == ref_prop
    return r


class TestMultiDataDifferential:
    @pytest.mark.parametrize("seed", [0, 2, 9])
    def test_matches_reference(self, seed):
        _check_multi_data(7, 35, seed + 50, seed)

    @pytest.mark.parametrize("seed", [0, 3, 424242])
    def test_draws_span_several_buffer_refills(self, seed):
        # One draw per proposal and about two per raw word, so thousands of
        # proposals run through several refills of the buffered words.
        r = _check_multi_data(64, 640, seed + 70, seed)
        assert r.proposals > 2 * 2 * RAW_BLOCK
        assert r.reassignments > 0

    @pytest.mark.parametrize("seed", [1, 5])
    def test_unequal_quotas_with_zero_quotas(self, seed):
        quotas = [0, 3, 17, 9, 1, 0, 12, 8, 14, 6, 10, 10]
        r = _check_multi_data(12, sum(quotas), seed + 90, seed, quotas=quotas)
        assert r.assignment.tasks_of[0] == r.assignment.tasks_of[5] == []

    @pytest.mark.parametrize(
        "quotas", [[15] * 48, [0, 40] + [20] * 46], ids=["equal", "unequal"]
    )
    def test_quota_sum_above_task_count(self, quotas):
        r = _check_multi_data(48, 480, 31, 7, quotas=quotas)
        assert sum(quotas) > 480
        assert r.proposals > 2 * 2 * RAW_BLOCK


class TestFlowNetworkDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("algorithm", ["dinic", "edmonds_karp"])
    def test_random_networks_same_flows_even_after_reset(self, seed, algorithm):
        rng = np.random.default_rng(seed)
        n = 14
        new, ref = FlowNetwork(n), RefFlowNetwork(n)
        handles = []
        for _ in range(45):
            u, v = rng.choice(n, size=2, replace=False)
            cap = int(rng.integers(1, 20))
            h_new = new.add_edge(int(u), int(v), cap)
            h_ref = ref.add_edge(int(u), int(v), cap)
            assert h_new == h_ref
            handles.append(h_new)
        ref_flow = ref.max_flow(0, n - 1, algorithm=algorithm)
        ref_flows = [ref.flow_on(h) for h in handles]
        # Solve, reset, re-solve from the restored capacities: the solver
        # runs again each time, and its flows are identical each time.
        for _ in range(3):
            assert new.max_flow(0, n - 1, algorithm=algorithm) == ref_flow
            assert new.flows_on(handles) == ref_flows
            assert [new.flow_on(h) for h in handles] == ref_flows
            new.reset()

    def test_add_edges_is_equivalent_to_add_edge_loop(self):
        rng = np.random.default_rng(3)
        edges = []
        for _ in range(30):
            u, v = rng.choice(10, size=2, replace=False)
            edges.append((int(u), int(v), int(rng.integers(1, 9))))
        one = FlowNetwork(10)
        loop_handles = [one.add_edge(*e) for e in edges]
        bulk = FlowNetwork(10)
        bulk_handles = bulk.add_edges(edges)
        assert bulk_handles == loop_handles
        assert bulk.max_flow(0, 9) == one.max_flow(0, 9)
        assert bulk.flows_on(bulk_handles) == one.flows_on(loop_handles)


class TestRemotePlanDifferential:
    @pytest.mark.parametrize("seed", [0, 4, 8])
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        chunk_ids = [ChunkId(f"r{i}", 0) for i in range(24)]
        locations = {
            cid: tuple(int(x) for x in rng.choice(9, size=3, replace=False))
            for cid in chunk_ids
        }
        ref_server, ref_load, ref_max, ref_cost = plan_remote_reads_ref(
            chunk_ids, locations
        )
        r = plan_remote_reads(chunk_ids, locations)
        assert r.server_of == ref_server
        assert r.load_per_node == ref_load
        assert r.max_load == ref_max
        assert r.cost == ref_cost


class TestGoldenPins:
    """The committed fixtures must be reproduced byte-for-byte."""

    @pytest.mark.parametrize(
        "filename, builder",
        [
            ("golden_matching_single.json", "build_single"),
            ("golden_matching_multi.json", "build_multi"),
            ("golden_matching_remote.json", "build_remote"),
        ],
    )
    def test_fixture_reproduced(self, filename, builder):
        from .data import make_golden_matching as gen

        produced = gen.dumps(getattr(gen, builder)())
        committed = (DATA / filename).read_text()
        assert produced == committed, (
            f"{filename} no longer reproduced byte-for-byte; if the change "
            "is intentional, regenerate with make_golden_matching.py"
        )


class TestSchedPerfCounters:
    def test_full_round_populates_every_stage(self):
        clear_graph_cache()
        perf = SchedPerf()
        fs = DistributedFileSystem(ClusterSpec.homogeneous(8), seed=0)
        data = single_data_workload(8, 6)
        fs.put_dataset(data)
        tasks = tasks_from_dataset(data)
        placement = ProcessPlacement.one_per_node(8)
        for round_no in range(3):
            g = graph_from_filesystem(fs, tasks, placement, perf=perf)
            optimize_single_data(g, seed=0, perf=perf)
            if round_no == 0:
                first_augmentations = perf.augmentations
                first_bfs_phases = perf.bfs_phases
        assert perf.graph_builds == 1
        assert perf.cache_misses == 1 and perf.cache_hits == 2
        assert perf.graph_edges == g.num_edges
        assert perf.solves == 3
        # First solve runs Dinic; the other two hit the per-graph memo and
        # run no solver, so the solver counters stay where round 1 left them.
        assert perf.augmentations == first_augmentations > 0
        assert perf.bfs_phases == first_bfs_phases > 0
        assert perf.solve_replays == 2
        assert perf.graph_build_wall > 0 and perf.solve_wall > 0
        clear_graph_cache()

    def test_snapshot_and_reset(self):
        perf = SchedPerf()
        perf.solves = 4
        perf.cache_hits = 3
        snap = perf.snapshot()
        assert snap["solves"] == 4 and snap["cache_hits"] == 3
        assert "solve_replays" in snap
        perf.reset()
        assert perf.solves == 0 and perf.snapshot()["cache_hits"] == 0

    def test_summary_rates(self):
        perf = SchedPerf()
        perf.cache_hits = 3
        perf.cache_misses = 1
        perf.solves = 2
        perf.augmentations = 10
        s = sched_perf_summary(perf)
        assert s["cache_hit_rate"] == pytest.approx(0.75)
        assert s["augmentations_per_solve"] == pytest.approx(5.0)
        # Zero-division guards.
        empty = sched_perf_summary(SchedPerf())
        assert empty["cache_hit_rate"] == 0.0
        assert empty["augmentations_per_solve"] == 0.0


class TestRunResultSchedPerf:
    def test_run_result_carries_and_summarises_sched_perf(self, fs8, placement8):
        from repro.metrics import run_summary

        perf = SchedPerf()
        tasks = tasks_from_dataset(
            single_data_workload(8, 4)
        )
        fs = DistributedFileSystem(ClusterSpec.homogeneous(8), seed=3)
        fs.put_dataset(single_data_workload(8, 4))
        g = graph_from_filesystem(fs, tasks, ProcessPlacement.one_per_node(8),
                                  perf=perf, cache=False)
        r = optimize_single_data(g, seed=3, perf=perf)
        run = ParallelReadRun(
            fs, ProcessPlacement.one_per_node(8), tasks,
            StaticSource(r.assignment), seed=3, sched_perf=perf,
        ).run()
        assert run.sched_perf is not None
        assert run.sched_perf["solves"] == 1
        summary = run_summary(run)
        assert summary["sched_perf"]["solves"] == 1
        assert "cache_hit_rate" in summary["sched_perf"]

    def test_sched_perf_defaults_to_none(self, fs8, placement8):
        from repro.metrics import run_summary

        tasks = tasks_from_dataset(single_data_workload(8, 2))
        fs = DistributedFileSystem(ClusterSpec.homogeneous(8), seed=1)
        fs.put_dataset(single_data_workload(8, 2))
        g = graph_from_filesystem(fs, tasks, ProcessPlacement.one_per_node(8),
                                  cache=False)
        r = optimize_single_data(g, seed=1)
        run = ParallelReadRun(
            fs, ProcessPlacement.one_per_node(8), tasks,
            StaticSource(r.assignment), seed=1,
        ).run()
        assert run.sched_perf is None
        assert "sched_perf" not in run_summary(run)
