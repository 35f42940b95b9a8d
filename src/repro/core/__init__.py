"""Opass core: locality graph, matching algorithms, assignment scoring."""

from .._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        "assignment": (
            "Assignment",
            "equal_quotas",
            "fully_local_tasks",
            "is_full_matching",
            "load_in_bytes",
            "load_in_tasks",
            "local_bytes",
            "locality_fraction",
        ),
        "baselines": (
            "DefaultDynamicPolicy",
            "random_assignment",
            "rank_interval_assignment",
        ),
        "bipartite": (
            "LocalityGraph",
            "ProcessPlacement",
            "build_locality_graph",
            "clear_graph_cache",
            "graph_cache_stats",
            "graph_from_filesystem",
        ),
        "csr": ("LocalityCSR", "build_csr", "csr_from_rows"),
        "delay_scheduling": ("DelaySchedulingPolicy", "LocalityGreedyPolicy"),
        "dynamic": ("DynamicPlan", "plan_dynamic"),
        "flownetwork": ("FlowNetwork",),
        "heterogeneous": (
            "HeterogeneousPlan",
            "node_speed_weights",
            "plan_heterogeneous",
            "proportional_quotas",
        ),
        "incremental": ("IncrementalResult", "rematch_incremental"),
        "mincostflow": ("MinCostFlowNetwork",),
        "multi_data": ("MultiDataResult", "optimize_multi_data"),
        "opass": ("opass_dynamic_plan", "opass_multi_data", "opass_single_data"),
        "perf": ("SchedPerf",),
        "quincy": ("optimize_quincy",),
        "remote_balance": (
            "PlannedReplicaChoice",
            "RemoteBalancePlanner",
            "RemoteBalanceResult",
            "plan_remote_reads",
        ),
        "serialization": (
            "assignment_from_dict",
            "assignment_to_dict",
            "layout_fingerprint",
            "load_assignment",
            "plan_from_dict",
            "plan_to_dict",
            "save_assignment",
        ),
        "single_data": ("SingleDataResult", "optimize_single_data"),
        "tasks": (
            "Task",
            "multi_pass_scan_tasks",
            "tasks_from_dataset",
            "tasks_from_datasets",
            "total_task_bytes",
        ),
    },
)
