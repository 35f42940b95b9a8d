"""Opass reproduction: optimization of parallel data access on distributed file systems.

Reimplements the full system from Yin et al., *"Opass: Analysis and
Optimization of Parallel Data Access on Distributed File Systems"*
(IPDPS 2015): an HDFS-like storage model, a flow-level cluster simulator,
the matching-based Opass schedulers (max-flow single-data, Algorithm-1
multi-data, guided-list dynamic), the paper's analytical models, and the
applications it evaluates (ParaView, mpiBLAST, multi-input comparison).

Quick start::

    from repro import (
        ClusterSpec, DistributedFileSystem, ProcessPlacement,
        uniform_dataset, opass_single_data,
    )

    fs = DistributedFileSystem(ClusterSpec.homogeneous(64), seed=7)
    data = uniform_dataset("bench", 640)
    fs.put_dataset(data)
    procs = ProcessPlacement.one_per_node(64)
    result, graph, tasks = opass_single_data(fs, data, procs)
    print(result.full_matching)  # usually True: every read is local
"""

from ._lazy import lazy_surface

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        "analysis": ("figure3_series", "prob_more_than", "section3b_summary"),
        "core": (
            "Assignment",
            "DefaultDynamicPolicy",
            "DynamicPlan",
            "LocalityGraph",
            "ProcessPlacement",
            "Task",
            "locality_fraction",
            "opass_dynamic_plan",
            "opass_multi_data",
            "opass_single_data",
            "optimize_multi_data",
            "optimize_single_data",
            "plan_dynamic",
            "random_assignment",
            "rank_interval_assignment",
            "tasks_from_dataset",
            "tasks_from_datasets",
        ),
        "dfs": (
            "Cluster",
            "ClusterSpec",
            "Dataset",
            "DistributedFileSystem",
            "uniform_dataset",
        ),
        "simulate": ("ParallelReadRun", "RunResult", "StaticSource"),
    },
)
__all__ += ["__version__"]
