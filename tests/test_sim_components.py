"""Engine-level tests for the component allocator and its lazy heap.

Covers what the golden and property suites don't: the perf-counter
semantics of the lazy-invalidation completion heap, the
``current_rate``-after-cancel regression (stale slot recycled by a
younger flow), ``run(until=...)`` resumability, the tie-snap firing
order, end-to-end agreement with the naive oracle in
``tests/reference_sim.py``, and that read workloads, whose components
stay below the numpy tier, never lower a component.
"""

from __future__ import annotations

import pytest

from repro.core import ProcessPlacement, rank_interval_assignment, tasks_from_dataset
from repro.dfs import ClusterSpec, DistributedFileSystem, uniform_dataset
from repro.experiments import (
    run_dynamic_comparison,
    run_multi_data_comparison,
    run_single_data_comparison,
)
from repro.simulate import REMAINING_EPS, ParallelReadRun, Simulation, StaticSource
from repro.simulate import components
from repro.simulate.resources import Resource
from repro.simulate.vectorized import VECTOR_MIN_FLOWS
from tests.reference_sim import ReferenceSimulation


def make_sim(resources=4, capacity=10.0, factory=Simulation):
    sim = factory()
    for i in range(resources):
        sim.add_resource(Resource(f"r{i}", capacity))
    return sim


class TestLazyHeap:
    def test_no_full_rebuilds_and_component_counters(self):
        sim = make_sim(resources=6)
        done = []
        # Disjoint singleton components with staggered sizes: every
        # completion is its own event and dirties only its own component.
        for i in range(6):
            sim.start_flow(10.0 * (i + 1), [f"r{i}"], done.append)
        sim.run()
        p = sim.perf
        assert len(done) == 6
        assert p.heap_pushes >= 6
        assert p.components == 6
        assert p.component_size_max == 1
        # Each event re-solves one singleton component, never the world.
        assert p.component_flows_resolved == p.component_solves
        assert p.snapshot()["component_size_mean"] == 1.0

    def test_stale_entries_skipped_on_pop(self):
        sim = make_sim(resources=1)
        done = []
        # Two flows sharing one resource: the first finish changes the
        # survivor's rate, invalidating its parked prediction.
        sim.start_flow(10.0, ["r0"], done.append)
        sim.start_flow(30.0, ["r0"], done.append)
        sim.run()
        assert len(done) == 2
        assert sim.perf.stale_pops >= 1

    def test_tie_snap_fires_lowest_flow_id_first(self):
        # Four equal flows on disjoint resources all finish at the same
        # simulated instant; the snap policy must retire them in flow_id
        # (= creation) order, like the oracle's full-scan tie-break.
        sim = make_sim(resources=4)
        order = []
        flows = [
            sim.start_flow(50.0, [f"r{i}"], lambda f: order.append(f.flow_id))
            for i in range(4)
        ]
        sim.run()
        assert order == sorted(f.flow_id for f in flows)
        assert sim.now == pytest.approx(5.0)


class TestCurrentRate:
    def test_rates_reflect_sharing(self):
        sim = make_sim(resources=1)
        a = sim.start_flow(100.0, ["r0"], lambda f: None)
        assert sim.current_rate(a) == 10.0
        b = sim.start_flow(100.0, ["r0"], lambda f: None)
        assert sim.current_rate(a) == 5.0
        assert sim.current_rate(b) == 5.0

    def test_cancelled_flow_reads_zero_through_recycled_slot(self):
        """Regression: after cancel, the flow's old slot may be recycled
        by a younger flow — querying the cancelled flow must return 0.0
        from the membership check, never the recycled slot's rate, and
        must not trigger a spurious re-solve."""
        sim = make_sim(resources=2)
        a = sim.start_flow(100.0, ["r0"], lambda f: None)
        assert sim.current_rate(a) == 10.0
        sim.cancel_flow(a)
        # The next start recycles a's slot id before any refresh runs.
        b = sim.start_flow(100.0, ["r1"], lambda f: None)
        solves_before = sim.perf.solves
        assert sim.current_rate(a) == 0.0
        assert sim.perf.solves == solves_before  # no spurious solve
        assert sim.current_rate(b) == 10.0

    def test_finished_flow_reads_zero(self):
        sim = make_sim(resources=1)
        done = []
        a = sim.start_flow(10.0, ["r0"], done.append)
        sim.run()
        assert done == [a]
        assert sim.current_rate(a) == 0.0

    def test_cancel_credits_partial_progress(self):
        sim = make_sim(resources=1)
        a = sim.start_flow(100.0, ["r0"], lambda f: None)
        sim.schedule(4.0, lambda: sim.cancel_flow(a))
        sim.run()
        assert a.remaining == pytest.approx(60.0, abs=REMAINING_EPS)


class TestRunUntil:
    def test_pause_and_resume_matches_single_shot(self):
        def build():
            sim = make_sim(resources=3)
            done = []
            for i in range(3):
                for k in range(3):
                    sim.start_flow(
                        10.0 * (i + 1) + 3.0 * k,
                        [f"r{i}"],
                        lambda f: done.append((f, sim.now)),
                    )
            return sim, done

        sim_a, done_a = build()
        end_a = sim_a.run()

        sim_b, done_b = build()
        sim_b.run(until=2.5)
        assert sim_b.now == 2.5
        mid = len(done_b)
        end_b = sim_b.run()
        assert mid < len(done_b) == len(done_a) == 9
        # A pause leaves the slot arrays unsettled, so the resumed run
        # replays the single shot's floats exactly.
        assert end_b == end_a
        assert [t for _, t in done_b] == [t for _, t in done_a]
        # flow_id is a process-global counter, so normalise per run.
        base_a = min(f.flow_id for f, _ in done_a)
        base_b = min(f.flow_id for f, _ in done_b)
        assert [f.flow_id - base_b for f, _ in done_b] == [
            f.flow_id - base_a for f, _ in done_a
        ]


class TestCrossEngineAgreement:
    def test_component_matches_reference_end_to_end(self):
        def makespan(factory):
            sim = make_sim(resources=4, factory=factory)
            done = []
            for i in range(4):
                for k in range(4):
                    sim.start_flow(
                        7.0 * (i + 1) + 2.0 * k + 0.5,
                        [f"r{i}", f"r{(i + 1) % 4}"],
                        done.append,
                    )
            end = sim.run()
            return end, [f.flow_id for f in done]

        ref_end, ref_order = makespan(ReferenceSimulation)
        comp_end, comp_order = makespan(Simulation)
        assert comp_end == pytest.approx(ref_end, rel=1e-9)
        # flow_ids differ across runs (global counter) but the relative
        # retire order must match.
        assert [o - min(ref_order) for o in ref_order] == [
            o - min(comp_order) for o in comp_order
        ]


class TestSmallPathUntouched:
    """Components below ``VECTOR_MIN_FLOWS`` flows never pay for the
    numpy tier's lowered form."""

    def test_small_components_never_lower(self, monkeypatch):
        lowered = []
        real = components._lower

        def record(group, res_caps):
            lowered.append(len(group))
            return real(group, res_caps)

        monkeypatch.setattr(components, "_lower", record)
        # The remote-heavy rank-interval baseline: contended components
        # of several flows, all below the cutoff.
        nodes = 32
        fs = DistributedFileSystem(ClusterSpec.homogeneous(nodes), seed=3)
        data = uniform_dataset("d", nodes * 8)
        fs.put_dataset(data)
        run = ParallelReadRun(
            fs,
            ProcessPlacement.one_per_node(nodes),
            tasks_from_dataset(data),
            StaticSource(rank_interval_assignment(data.num_chunks, nodes)),
            seed=3,
        )
        result = run.run()
        perf = result.sim_perf
        assert 1 < perf["component_size_max"] < VECTOR_MIN_FLOWS
        assert perf["vectorized_solves"] == 0
        assert lowered == []
        assert run.sim._alloc._forms == {}

    # Engine counters of the three read workloads of the repository
    # benchmark at seed 0 (per run: baseline, then Opass).  None of these
    # runs reaches the numpy tier, so its rework must leave
    # ``component_solves`` exactly as it was before numpy-tier components
    # were lowered once.  ``heap_pushes`` counts every entry pushed onto
    # the engine's one heap (re-rates, re-predicted tops that wait behind
    # a timer, sweep re-queues) and ``stale_pops`` every superseded entry
    # it discards.
    READ_COUNTERS = {
        "fig7-single": {
            "heap_pushes": [16298, 5120],
            "stale_pops": [7519, 0],
            "component_solves": [6885, 5120],
        },
        "fig9-multi": {
            "heap_pushes": [26225, 24627],
            "stale_pops": [11631, 10241],
            "component_solves": [10691, 10741],
        },
        "fig11-dynamic": {
            "heap_pushes": [22166, 15043],
            "stale_pops": [7727, 204],
            "component_solves": [7217, 5207],
        },
    }

    @pytest.mark.parametrize("workload", sorted(READ_COUNTERS))
    def test_read_workload_counters_unchanged(self, workload):
        if workload == "fig7-single":
            cmp = run_single_data_comparison(512, chunks_per_process=10, seed=0)
            perfs = [cmp.base.sim_perf, cmp.opass.sim_perf]
        elif workload == "fig9-multi":
            cmp = run_multi_data_comparison(
                num_nodes=256, num_tasks=2560, input_sizes_mb=(30, 20, 10), seed=0
            )
            perfs = [cmp.base.result.sim_perf, cmp.opass.result.sim_perf]
        else:
            cmp = run_dynamic_comparison(
                num_nodes=512,
                num_fragments=5120,
                compute_mean=0.3,
                compute_cv=0.8,
                seed=0,
            )
            perfs = [cmp.base.result.sim_perf, cmp.opass.result.sim_perf]
        assert all(p["vectorized_solves"] == 0 for p in perfs)
        got = {k: [p[k] for p in perfs] for k in self.READ_COUNTERS[workload]}
        assert got == self.READ_COUNTERS[workload]
