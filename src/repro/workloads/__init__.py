"""Workload generators for the paper's benchmarks and applications."""

from .._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        "generators": (
            "gene_database",
            "motivating_dataset",
            "multi_input_datasets",
            "paraview_multiblock_series",
            "single_data_workload",
        ),
    },
)
