"""Capacity resources for the flow-level simulator.

Each cluster node contributes three resources: its disk, its NIC egress and
its NIC ingress.  A transfer (flow) occupies one or more resources for its
whole duration and shares each resource's capacity max-min fairly with the
other flows crossing it — the fluid model of disk-head and network
contention that drives the paper's I/O-time results.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dfs.cluster import ClusterSpec
from ..units import BytesPerSec


@dataclass(frozen=True, slots=True)
class Resource:
    """A named capacity (bytes/second).

    ``concurrency_penalty`` models service degradation under concurrent
    access: with ``k`` simultaneous flows the resource delivers
    ``capacity / (1 + penalty·(k−1))`` in aggregate.  Disks suffer this
    (seek thrashing between competing streams); network links do not.
    """

    name: str
    capacity: BytesPerSec
    concurrency_penalty: float = 0.0

    def __post_init__(self) -> None:
        # Negated so that NaN, which compares false, is rejected too.
        if not self.capacity > 0:
            raise ValueError(f"resource {self.name!r} needs positive capacity")
        if not self.concurrency_penalty >= 0:
            raise ValueError(f"resource {self.name!r} needs non-negative penalty")

    def effective_capacity(self, concurrency: int) -> BytesPerSec:
        """Aggregate bandwidth delivered to ``concurrency`` simultaneous flows."""
        if concurrency <= 1:
            return self.capacity
        return self.capacity / (1.0 + self.concurrency_penalty * (concurrency - 1))


def disk(node_id: int) -> str:
    """Resource name of a node's disk."""
    return f"disk:{node_id}"


def nic_tx(node_id: int) -> str:
    """Resource name of a node's NIC egress."""
    return f"tx:{node_id}"


def nic_rx(node_id: int) -> str:
    """Resource name of a node's NIC ingress."""
    return f"rx:{node_id}"


def rack_up(rack: int) -> str:
    """Resource name of a rack's uplink (traffic leaving the rack)."""
    return f"rkup:{rack}"


def rack_down(rack: int) -> str:
    """Resource name of a rack's downlink (traffic entering the rack)."""
    return f"rkdn:{rack}"


def cluster_resources(spec: ClusterSpec) -> list[Resource]:
    """The full resource set of a cluster: disk + duplex NIC per node,
    plus per-rack duplex uplinks when the fabric is oversubscribed."""
    out: list[Resource] = []
    for node in spec:
        out.append(
            Resource(disk(node.node_id), node.disk_bw, node.disk_concurrency_penalty)
        )
        out.append(Resource(nic_tx(node.node_id), node.nic_bw))
        out.append(Resource(nic_rx(node.node_id), node.nic_bw))
    if spec.rack_uplink_bw is not None:
        for rack in sorted({n.rack for n in spec}):
            out.append(Resource(rack_up(rack), spec.rack_uplink_bw))
            out.append(Resource(rack_down(rack), spec.rack_uplink_bw))
    return out


def local_read_path(server_node: int) -> list[str]:
    """Resources a local read occupies: just the serving disk."""
    return [disk(server_node)]


def remote_read_path(
    server_node: int,
    reader_node: int,
    *,
    server_rack: int | None = None,
    reader_rack: int | None = None,
) -> list[str]:
    """Resources a remote read occupies.

    Same rack (or no rack modelling): disk + server egress + reader
    ingress.  Cross-rack with an oversubscribed fabric (both rack ids
    given and differing): additionally the server rack's uplink and the
    reader rack's downlink.
    """
    if server_node == reader_node:
        raise ValueError("remote read with server == reader")
    path = [disk(server_node), nic_tx(server_node)]
    if server_rack is not None and reader_rack is not None and server_rack != reader_rack:
        path.append(rack_up(server_rack))
        path.append(rack_down(reader_rack))
    path.append(nic_rx(reader_node))
    return path
