"""Tests for the SimPerf instrumentation and its metrics wiring."""

import pytest

from repro.core import ProcessPlacement, rank_interval_assignment, tasks_from_dataset
from repro.dfs import ClusterSpec, DistributedFileSystem, uniform_dataset
from repro.dfs.chunk import MB
from repro.metrics import SimPerf, perf_summary, run_summary
from repro.simulate import Simulation
from repro.simulate.resources import Resource
from repro.simulate.runner import ParallelReadRun, StaticSource


def drain(sim):
    sim.run()


class TestEngineCounters:
    def test_flow_lifecycle_counts(self):
        sim = Simulation()
        sim.add_resource(Resource("r", 10.0))
        done = []
        sim.start_flow(50, ["r"], done.append)
        sim.start_flow(30, ["r"], done.append)
        cancelled = sim.start_flow(30, ["r"], done.append)
        sim.cancel_flow(cancelled)
        drain(sim)
        p = sim.perf
        assert p.flows_started == 3
        assert p.flows_finished == 2
        assert p.flows_cancelled == 1
        assert p.flow_events == 2
        assert p.events == sim.events_processed == 2

    def test_timer_events_counted(self):
        sim = Simulation()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.schedule(2.0, lambda: fired.append(sim.now))
        drain(sim)
        assert sim.perf.timer_events == 2
        assert sim.perf.flow_events == 0

    def test_solves_and_heap_are_lazy(self):
        """Timer-only churn must not trigger re-solves or predictions."""
        sim = Simulation()
        sim.add_resource(Resource("r", 10.0))
        sim.start_flow(100, ["r"], lambda f: None)
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        drain(sim)
        # one initial solve, nothing dirtied until the flow completed
        assert sim.perf.solves == 2
        # the engine predicts per changed flow; pushes are bounded by
        # peeks (the tie-snap re-push), not flows x epochs
        assert 1 <= sim.perf.heap_pushes <= sim.perf.events + 2
        assert sim.perf.solve_iterations >= 1

    def test_deprecated_aliases_removed(self):
        """Retired counters are gone from both API and snapshot."""
        p = SimPerf()
        snap = p.snapshot()
        for name in ("heap_rebuilds", "heap_pops", "prediction_rebuilds"):
            assert not hasattr(p, name)
            assert name not in snap
        assert "stale_pops" in snap
        # perfbench reads the constant key
        assert not hasattr(p, "memo_hits")
        assert snap["memo_hits"] == 0
        assert "fastforward_cascades" in snap
        assert "cascade_events" in snap

    def test_wall_clocks_accumulate(self):
        sim = Simulation()
        sim.add_resource(Resource("r", 10.0))
        for i in range(10):
            # staggered sizes: completions are distinct events, so settle
            # passes run with live flows still present
            sim.start_flow(10.0 * (i + 1), ["r"], lambda f: None)
        drain(sim)
        assert sim.perf.solve_wall >= 0.0
        assert sim.perf.settles > 0
        assert sim.perf.flows_settled > 0

    def test_reset(self):
        p = SimPerf(solves=3, flow_events=7, solve_wall=1.5)
        p.reset()
        assert p == SimPerf()


class TestSnapshotAndSummary:
    def test_snapshot_is_json_ready(self):
        p = SimPerf(solves=2, flow_events=3, timer_events=1)
        snap = p.snapshot()
        assert snap["solves"] == 2
        assert all(isinstance(v, (int, float)) for v in snap.values())

    def test_perf_summary_derived_ratios(self):
        p = SimPerf(solves=4, solve_iterations=10, flow_events=6, timer_events=2)
        s = perf_summary(p)
        assert s["events"] == 8
        assert s["iterations_per_solve"] == pytest.approx(2.5)
        assert s["solves_per_event"] == pytest.approx(0.5)

    def test_perf_summary_accepts_plain_dict(self):
        s = perf_summary({"solves": 0, "flow_events": 0, "timer_events": 0})
        assert s["iterations_per_solve"] == 0.0
        assert s["solves_per_event"] == 0.0


class TestRunnerWiring:
    def test_run_result_carries_sim_perf(self):
        spec = ClusterSpec.homogeneous(4, seek_latency=0.0, remote_latency=0.0)
        fs = DistributedFileSystem(spec, replication=2, seed=8)
        ds = uniform_dataset("d", 8, chunk_size=10 * MB)
        fs.put_dataset(ds)
        result = ParallelReadRun(
            fs,
            ProcessPlacement.one_per_node(4),
            tasks_from_dataset(ds),
            StaticSource(rank_interval_assignment(8, 4)),
        ).run()
        assert result.sim_perf is not None
        assert result.sim_perf["flows_finished"] >= 8
        assert result.sim_perf["solves"] > 0
        summary = run_summary(result)
        assert summary["sim_perf"]["events"] > 0
