"""MPI-like parallel execution substrate: communicator + SPMD/master-worker drivers."""

from .._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        "comm": ("ANY_SOURCE", "ANY_TAG", "SimComm"),
        "dlmpi": ("DataLocalityQuery", "LocalitySplit"),
        "master_worker": (
            "MasterWorkerOutcome",
            "irregular_compute_model",
            "run_master_worker",
        ),
        "spmd": ("SpmdOutcome", "run_opass_single", "run_rank_interval", "run_static"),
    },
)
