"""Flow-level discrete-event simulation of the cluster's disks and network."""

from .._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        "background": ("BackgroundTraffic",),
        "components": ("ComponentAllocator",),
        "engine": ("REMAINING_EPS", "Simulation"),
        "faults": ("FaultPlan", "NodeFailure", "NodeRecovery"),
        "flows": ("Flow", "allocate_rates", "verify_allocation"),
        "perf": ("SimPerf",),
        "ingest": ("DatasetIngest", "IngestResult", "WriteRecord", "pipeline_path"),
        "iomodel": ("ReadCost", "read_cost", "uncontended_read_time"),
        "resources": (
            "Resource",
            "cluster_resources",
            "disk",
            "local_read_path",
            "nic_rx",
            "nic_tx",
            "rack_down",
            "rack_up",
            "remote_read_path",
        ),
        "runner": (
            "ParallelReadRun",
            "ReadRecord",
            "RunResult",
            "StaticSource",
            "TaskSource",
            "Wait",
        ),
    },
)
