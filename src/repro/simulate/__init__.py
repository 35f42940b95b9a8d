"""Flow-level discrete-event simulation of the cluster's disks and network."""

from .background import BackgroundTraffic
from .components import ComponentAllocator
from .engine import REMAINING_EPS, Simulation
from .faults import FaultPlan, NodeFailure, NodeRecovery
from .flows import Flow, allocate_rates, verify_allocation
from .perf import SimPerf
from .ingest import DatasetIngest, IngestResult, WriteRecord, pipeline_path
from .iomodel import ReadCost, read_cost, uncontended_read_time
from .resources import (
    Resource,
    cluster_resources,
    disk,
    local_read_path,
    nic_rx,
    nic_tx,
    rack_down,
    rack_up,
    remote_read_path,
)
from .runner import (
    ParallelReadRun,
    ReadRecord,
    RunResult,
    StaticSource,
    TaskSource,
    Wait,
)

__all__ = [
    "REMAINING_EPS",
    "BackgroundTraffic",
    "ComponentAllocator",
    "DatasetIngest",
    "FaultPlan",
    "Flow",
    "IngestResult",
    "NodeFailure",
    "NodeRecovery",
    "ParallelReadRun",
    "ReadCost",
    "ReadRecord",
    "Resource",
    "RunResult",
    "SimPerf",
    "Simulation",
    "StaticSource",
    "WriteRecord",
    "TaskSource",
    "Wait",
    "allocate_rates",
    "cluster_resources",
    "disk",
    "local_read_path",
    "nic_rx",
    "nic_tx",
    "rack_down",
    "rack_up",
    "pipeline_path",
    "read_cost",
    "remote_read_path",
    "uncontended_read_time",
    "verify_allocation",
]
