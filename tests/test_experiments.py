"""Tests for the typed experiments API (small scale)."""

import pytest

from repro.core import SchedPerf
from repro.experiments import (
    matching_scalability_sweep,
    measure_matching_overhead,
    run_dynamic_comparison,
    run_motivating_experiment,
    run_multi_data_comparison,
    run_paraview_comparison,
    run_single_data_comparison,
    run_sweep,
)


class TestSingleData:
    def test_comparison_shape(self):
        cmp = run_single_data_comparison(8, chunks_per_process=4, seed=0)
        assert cmp.num_nodes == 8
        assert cmp.base.tasks_completed == 32
        assert cmp.opass.tasks_completed == 32
        assert cmp.base_served_mb.shape == (8,)
        assert cmp.opass.locality_fraction > cmp.base.locality_fraction

    def test_same_seed_same_outcome(self):
        a = run_single_data_comparison(8, chunks_per_process=4, seed=3)
        b = run_single_data_comparison(8, chunks_per_process=4, seed=3)
        assert a.base.makespan == b.base.makespan
        assert (a.opass_served_mb == b.opass_served_mb).all()

    def test_sweep_structure(self):
        out = run_sweep(sizes=(4, 8), chunks_per_process=2, seeds=(0, 1))
        assert set(out) == {4, 8}
        assert all(len(v) == 2 for v in out.values())

    def test_motivation(self):
        out = run_motivating_experiment(num_nodes=8, num_chunks=16, seed=0)
        assert out.run.tasks_completed == 16
        assert out.chunks_served.sum() == 16


class TestMultiData:
    def test_comparison(self):
        cmp = run_multi_data_comparison(num_nodes=8, num_tasks=24, seed=0)
        assert cmp.base.result.tasks_completed == 24
        assert cmp.io_improvement > 1.0
        assert cmp.base_served_mb.sum() == pytest.approx(
            cmp.opass_served_mb.sum()
        )

    def test_custom_input_sizes(self):
        cmp = run_multi_data_comparison(
            num_nodes=4, num_tasks=8, input_sizes_mb=(5, 5), seed=0
        )
        assert len(cmp.base.result.records) == 16  # 2 inputs per task


class TestDynamic:
    def test_comparison(self):
        cmp = run_dynamic_comparison(
            num_nodes=8, num_fragments=24, compute_mean=0.1, seed=0
        )
        assert cmp.base.result.tasks_completed == 24
        assert cmp.opass.result.tasks_completed == 24
        assert cmp.io_improvement > 1.0


class TestParaView:
    def test_comparison(self):
        cmp = run_paraview_comparison(num_nodes=8, num_datasets=16, seed=0)
        assert cmp.stock.run.tasks_completed == 16
        assert cmp.opass.avg_call_time <= cmp.stock.avg_call_time
        assert cmp.time_saved >= 0


class TestOverhead:
    def test_overhead_fraction(self):
        out = measure_matching_overhead(8, chunks_per_process=4, seed=0)
        assert out.matching_seconds > 0
        assert out.access_seconds > 0
        assert out.overhead_fraction < 0.05  # generous at toy scale

    def test_scalability_rows(self):
        rows = matching_scalability_sweep(sizes=(4, 8), chunks_per_process=2)
        assert [r.num_nodes for r in rows] == [4, 8]
        assert all(r.matching_ms >= 0 for r in rows)
        assert rows[1].num_edges > rows[0].num_edges

    def test_repeated_sweep_solves_cold(self):
        """Every row times a real solve: a second sweep in the same process
        hits neither the graph cache nor the per-graph solve memo."""
        matching_scalability_sweep(sizes=(4, 8), chunks_per_process=2)
        perf = SchedPerf()
        matching_scalability_sweep(sizes=(4, 8), chunks_per_process=2, perf=perf)
        assert perf.solves == 2
        assert (perf.cache_hits, perf.solve_replays) == (0, 0)


class TestRepetition:
    def test_repeat_aggregates(self):
        from repro.experiments import repeat

        out = repeat(
            lambda seed: seed * 2,
            {"double": lambda v: v, "half": lambda v: v / 4},
            seeds=(1, 2, 3),
        )
        assert out.metrics["double"].mean == pytest.approx(4.0)
        assert out.metrics["double"].min == 2.0
        assert out.metrics["double"].max == 6.0
        assert out.metrics["double"].n == 3
        assert out.metrics["half"].mean == pytest.approx(1.0)
        assert out.outcomes == [2, 4, 6]

    def test_repeat_validation(self):
        from repro.experiments import repeat

        with pytest.raises(ValueError):
            repeat(lambda s: s, {"x": float}, seeds=())
        with pytest.raises(ValueError):
            repeat(lambda s: s, {}, seeds=(1,))

    def test_paraview_repeated_small(self):
        from repro.experiments import run_paraview_repeated

        out = run_paraview_repeated(num_nodes=8, num_datasets=16, seeds=(0, 1))
        m = out.metrics
        assert m["stock_total"].n == 2
        # Opass totals below stock totals in every replication.
        assert m["opass_total"].max <= m["stock_total"].min
        assert m["opass_avg_call"].mean < m["stock_avg_call"].mean
