"""Measurement utilities: summaries, fairness indices, serve monitoring."""

from ..core.perf import SchedPerf
from ..simulate.perf import SimPerf
from .._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        "export": (
            "perf_summary",
            "records_to_rows",
            "run_summary",
            "sched_perf_summary",
            "write_records_csv",
            "write_run_json",
            "write_series_csv",
        ),
        "recorder": ("ServeMonitor",),
        "stats": (
            "Summary",
            "coefficient_of_variation",
            "imbalance_factor",
            "jains_fairness",
            "percentile_summary",
            "summarize",
            "windowed_means",
        ),
    },
)
__all__ += ["SchedPerf", "SimPerf"]
