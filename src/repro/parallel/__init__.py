"""MPI-like parallel execution substrate: communicator + SPMD/master-worker drivers."""

from .comm import ANY_SOURCE, ANY_TAG, SimComm
from .dlmpi import DataLocalityQuery, LocalitySplit
from .master_worker import (
    MasterWorkerOutcome,
    irregular_compute_model,
    run_master_worker,
)
from .spmd import SpmdOutcome, run_opass_single, run_rank_interval, run_static

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "DataLocalityQuery",
    "LocalitySplit",
    "MasterWorkerOutcome",
    "SimComm",
    "SpmdOutcome",
    "irregular_compute_model",
    "run_master_worker",
    "run_opass_single",
    "run_rank_interval",
    "run_static",
]
