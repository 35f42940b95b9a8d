"""Bottleneck lower bounds on parallel-read makespan.

Classic bandwidth arguments give two lower bounds on any execution of a
read workload, independent of scheduling:

* **server bound** — node j must push every byte it serves through its
  disk: makespan ≥ max_j served_bytes(j) / disk_bw(j);
* **reader bound** — process i must pull every byte it reads through the
  best pipe available to it (its own disk when local, the remote stream
  ceiling when not): makespan ≥ max_i read_bytes(i) / pipe(i).

A perfectly local, perfectly balanced schedule (Opass with a full
matching) meets both bounds with equality up to per-read latency — which
is why its measured makespan is ~q·chunk/disk_bw.  The baseline's
makespan exceeds the bounds by its contention losses.  ``bench_ext_bounds``
checks both directions against the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.assignment import Assignment
from ..core.bipartite import LocalityGraph
from ..dfs.cluster import ClusterSpec


@dataclass(frozen=True)
class MakespanBounds:
    """Lower bounds for one (assignment, layout, cluster) triple."""

    server_bound: float
    reader_bound: float

    @property
    def bound(self) -> float:
        return max(self.server_bound, self.reader_bound)


def reader_bound(
    assignment: Assignment,
    graph: LocalityGraph,
    spec: ClusterSpec,
) -> float:
    """max over processes of local/disk + remote/stream service demand.

    Local bytes stream from the process's own disk; remote bytes cannot
    exceed the per-stream ceiling (reads are sequential per process).
    """
    worst = 0.0
    for rank, tasks in assignment.tasks_of.items():
        node = graph.placement.node_of(rank)
        disk_bw = spec.node(node).disk_bw
        local = 0
        remote = 0
        for t in tasks:
            size = graph.task_bytes(t)
            co = graph.edge_weight(rank, t)
            local += co
            remote += size - co
        demand = local / disk_bw + remote / min(spec.remote_stream_bw, disk_bw)
        worst = max(worst, demand)
    return worst


def server_bound_from_served(
    served_bytes: dict[int, int] | np.ndarray,
    spec: ClusterSpec,
) -> float:
    """max over nodes of served bytes / disk bandwidth (post-hoc bound)."""
    if isinstance(served_bytes, np.ndarray):
        items = enumerate(served_bytes.tolist())
    else:
        items = served_bytes.items()
    worst = 0.0
    for node, served in items:
        worst = max(worst, served / spec.node(node).disk_bw)
    return worst


def expected_server_bound(
    assignment: Assignment,
    graph: LocalityGraph,
    spec: ClusterSpec,
) -> float:
    """A-priori server bound: local bytes are served by the owner's node;
    remote bytes by *some* replica holder — spread optimally, the best any
    schedule can hope for is total-remote / aggregate disk bandwidth, with
    per-node local service as a floor."""
    local_served = np.zeros(spec.num_nodes)
    total_remote = 0.0
    for rank, tasks in assignment.tasks_of.items():
        node = graph.placement.node_of(rank)
        for t in tasks:
            co = graph.edge_weight(rank, t)
            local_served[node] += co
            total_remote += graph.task_bytes(t) - co
    per_node_local = max(
        (local_served[n.node_id] / n.disk_bw for n in spec), default=0.0
    )
    aggregate_bw = sum(n.disk_bw for n in spec)
    return max(per_node_local, total_remote / aggregate_bw if aggregate_bw else 0.0)


def makespan_bounds(
    assignment: Assignment,
    graph: LocalityGraph,
    spec: ClusterSpec,
) -> MakespanBounds:
    """Both a-priori lower bounds for an assignment on a layout."""
    return MakespanBounds(
        server_bound=expected_server_bound(assignment, graph, spec),
        reader_bound=reader_bound(assignment, graph, spec),
    )
