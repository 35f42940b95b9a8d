"""Analytical models of remote and imbalanced parallel access (paper §III)."""

from .._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        "balance": (
            "BalanceSummary",
            "cdf_served_chunks",
            "cdf_served_chunks_total_probability",
            "expected_nodes_serving_at_most",
            "expected_nodes_serving_more_than",
            "section3b_summary",
            "served_chunks_distribution",
            "stored_chunks_distribution",
        ),
        "locality": (
            "FIGURE3_CLUSTER_SIZES",
            "FIGURE3_NUM_CHUNKS",
            "FIGURE3_REPLICATION",
            "Figure3Row",
            "cdf_local_chunks",
            "expected_local_chunks",
            "expected_local_fraction",
            "figure3_series",
            "local_chunks_distribution",
            "paper_figure3_series",
            "local_read_probability",
            "prob_more_than",
        ),
        "bounds": (
            "MakespanBounds",
            "expected_server_bound",
            "makespan_bounds",
            "reader_bound",
            "server_bound_from_served",
        ),
        "extremes": (
            "HotspotSummary",
            "empirical_max_served",
            "expected_max_served",
            "hotspot_summary",
            "max_served_cdf",
            "max_served_pmf",
        ),
        "validation": ("ValidationRow", "validate_configuration", "validation_grid"),
        "montecarlo": (
            "ServeSample",
            "empirical_cdf",
            "empirical_local_chunks",
            "empirical_nodes_serving",
            "sample_placement",
            "simulate_serve_counts",
        ),
    },
)
