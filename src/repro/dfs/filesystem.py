"""The distributed file system facade — the libhdfs-like client surface.

Ties together the cluster, NameNode, DataNodes, a placement policy and a
replica-selection policy.  Application code (drivers, benchmarks) talks only
to this class:

* ``put_dataset`` — ingest a dataset (places replicas, registers metadata);
* ``get_block_locations`` / ``layout_snapshot`` — what Opass's graph builder
  reads;
* ``resolve_read`` — given (reader node, chunk), decide the serving replica
  using HDFS's local-first / configurable-remote policy and update serve
  counters.  The simulator uses the resolved :class:`ReadPlan` to build the
  actual timed transfer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chunk import Chunk, ChunkId, Dataset
from .cluster import Cluster, ClusterSpec
from .datanode import DataNode
from .namenode import NameNode
from .placement import DEFAULT_REPLICATION, PlacementPolicy, RandomPlacement
from .policies import RandomRemote, ReplicaChoicePolicy


# Not frozen: one plan is built per chunk read on the simulator's hot
# path, and a frozen dataclass pays ~4x on construction (every field
# goes through object.__setattr__).  Treat instances as immutable.
@dataclass(slots=True)
class ReadPlan:
    """A resolved read: which node serves a chunk to which reader."""

    chunk: Chunk
    reader_node: int
    server_node: int

    @property
    def is_local(self) -> bool:
        return self.reader_node == self.server_node


class DistributedFileSystem:
    """An HDFS-like file system over a simulated cluster.

    A ``replication`` above the number of active nodes is accepted, as in
    HDFS: each chunk is then stored under-replicated, on
    ``min(replication, active nodes)`` distinct nodes (the placement
    policies' rule).
    """

    def __init__(
        self,
        cluster: Cluster | ClusterSpec,
        *,
        replication: int = DEFAULT_REPLICATION,
        placement: PlacementPolicy | None = None,
        replica_choice: ReplicaChoicePolicy | None = None,
        seed: int | np.random.Generator = 0,
    ) -> None:
        if isinstance(cluster, ClusterSpec):
            cluster = Cluster(cluster)
        if replication <= 0:
            raise ValueError("replication must be positive")
        self.cluster = cluster
        self.replication = replication
        self.placement = placement if placement is not None else RandomPlacement()
        self.replica_choice = replica_choice if replica_choice is not None else RandomRemote()
        self.rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )
        self.namenode = NameNode()
        self.datanodes = {n.node_id: DataNode(n.node_id) for n in cluster.spec.nodes}

    # -- convenience properties ---------------------------------------------

    @property
    def spec(self) -> ClusterSpec:
        return self.cluster.spec

    @property
    def num_nodes(self) -> int:
        return self.spec.num_nodes

    # -- write path -----------------------------------------------------------

    def put_dataset(self, dataset: Dataset, *, writer_node: int | None = None) -> None:
        """Store a dataset: place replicas and register metadata.

        A rejected dataset (its name or a file name already taken) leaves
        the file system, and its ``rng``, as they were.
        """
        self.namenode.check_new_dataset(dataset)
        layout = self.placement.place_dataset(
            dataset,
            self.spec,
            self.cluster.active_nodes,
            self.replication,
            self.rng,
            writer_node,
        )
        self.store(dataset, layout)

    def store(self, dataset: Dataset, layout: dict[ChunkId, tuple[int, ...]]) -> None:
        """Register ``dataset`` under a given chunk → nodes layout and hand
        each node its replicas."""
        self.namenode.register_dataset(dataset, layout)
        datanodes = self.datanodes
        for chunk in dataset.iter_chunks():
            for node in layout[chunk.id]:
                datanodes[node].add_replica(chunk.id, chunk.size)

    # -- metadata (the Opass-facing surface) ----------------------------------

    def get_block_locations(self, file_name: str) -> list[tuple[Chunk, tuple[int, ...]]]:
        return self.namenode.get_block_locations(file_name)

    def layout_snapshot(self) -> dict[ChunkId, tuple[int, ...]]:
        return self.namenode.layout_snapshot()

    @property
    def layout_token(self) -> int:
        """O(1) content token for the current layout (see NameNode)."""
        return self.namenode.layout_token

    def dataset(self, name: str) -> Dataset:
        return self.namenode.dataset(name)

    def chunk(self, chunk_id: ChunkId) -> Chunk:
        return self.namenode.chunk(chunk_id)

    # -- read path --------------------------------------------------------------

    def resolve_read(self, chunk_id: ChunkId, reader_node: int) -> ReadPlan:
        """Apply HDFS's read policy: local replica if present, else remote.

        Updates the serving DataNode's counters; the caller is responsible
        for actually timing the transfer (see :mod:`repro.simulate`).
        """
        cluster = self.cluster
        spec = cluster.spec
        if not 0 <= reader_node < spec.num_nodes:
            spec.node(reader_node)  # raise the canonical error
        chunk, replicas = self.namenode.read_entry(chunk_id)
        if cluster.num_active == spec.num_nodes:
            # Healthy cluster: every replica is live; skip the filter.
            live = replicas
        else:
            live = tuple(n for n in replicas if cluster.is_active(n))
        if not live:
            raise RuntimeError(f"no live replica for {chunk_id}")
        if reader_node in live:
            server = reader_node
        else:
            server = self.replica_choice.choose(chunk_id, live, reader_node, self.rng)
        plan = ReadPlan(chunk=chunk, reader_node=reader_node, server_node=server)
        self.datanodes[server].record_serve(chunk_id, local=plan.is_local)
        return plan

    # -- statistics ----------------------------------------------------------------

    def bytes_served_per_node(self) -> dict[int, int]:
        return {nid: dn.bytes_served for nid, dn in self.datanodes.items()}

    def requests_served_per_node(self) -> dict[int, int]:
        return {nid: dn.requests_served for nid, dn in self.datanodes.items()}

    def reset_counters(self) -> None:
        for dn in self.datanodes.values():
            dn.reset_counters()
        self.replica_choice.reset()

    def replica_count_per_node(self) -> dict[int, int]:
        return {nid: dn.num_replicas for nid, dn in self.datanodes.items()}
