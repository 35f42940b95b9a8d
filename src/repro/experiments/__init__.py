"""Typed, importable versions of every paper experiment.

The benchmark files in ``benchmarks/`` print and assert over these; the
CLI and downstream users call them directly:

>>> from repro.experiments import run_single_data_comparison
>>> cmp = run_single_data_comparison(16, seed=0)
>>> cmp.opass.locality_fraction
1.0
"""

from .._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        "dynamic": ("DynamicComparison", "run_dynamic_comparison"),
        "multi_data": ("MultiDataComparison", "run_multi_data_comparison"),
        "overhead": (
            "OverheadResult",
            "ScalabilityRow",
            "build_single_data_graph",
            "matching_scalability_sweep",
            "measure_matching_overhead",
        ),
        "paraview": ("ParaViewComparison", "run_paraview_comparison"),
        "repetition": (
            "MetricStats",
            "RepeatedResult",
            "repeat",
            "run_paraview_repeated",
        ),
        "single_data": (
            "SWEEP_SIZES",
            "MotivationResult",
            "SingleDataComparison",
            "run_motivating_experiment",
            "run_single_data_comparison",
            "run_sweep",
        ),
    },
)
