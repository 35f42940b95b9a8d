"""Timed dataset ingestion: the HDFS write pipeline.

The paper's context includes parallel writers: "Garth and Sun proposed
methods to allow MPI-based programs to write data, in parallel, into HDFS
and achieve high I/O performance."  This module models that ingest path so
datasets can be *written* on the simulated cluster, not only conjured into
place:

* each chunk's replicas are placed by the file system's placement policy
  (writer-local placement reproduces HDFS's first-replica-on-writer rule);
* the chunk then streams through the HDFS replication pipeline
  writer → r1 → r2 → r3: one fluid flow traversing every hop's NIC and
  every replica's disk, capped at the per-stream ceiling;
* writer processes write their chunks sequentially, in parallel with each
  other, contending on disks/NICs exactly like readers do.

After :meth:`DatasetIngest.run` the dataset is fully registered and
readable — the write and read halves compose into a full data lifecycle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..core.assignment import Assignment
from ..core.baselines import rank_interval_assignment
from ..core.bipartite import ProcessPlacement
from ..dfs.chunk import Chunk, ChunkId, Dataset
from ..dfs.filesystem import DistributedFileSystem
from .engine import Simulation
from .resources import cluster_resources, disk, nic_rx, nic_tx


@dataclass(frozen=True, slots=True)
class WriteRecord:
    """One chunk write, fully timed."""

    seq: int
    writer_rank: int
    writer_node: int
    chunk: ChunkId
    pipeline: tuple[int, ...]
    issue_time: float
    end_time: float

    @property
    def duration(self) -> float:
        return self.end_time - self.issue_time


@dataclass
class IngestResult:
    """Everything a write benchmark needs from one ingestion."""

    records: list[WriteRecord]
    makespan: float
    bytes_written: int

    def durations(self) -> np.ndarray:
        ordered = sorted(self.records, key=lambda r: (r.end_time, r.seq))
        return np.array([r.duration for r in ordered])

    def write_stats(self) -> dict[str, float]:
        d = self.durations()
        if d.size == 0:
            return {"avg": 0.0, "max": 0.0, "min": 0.0, "std": 0.0}
        return {
            "avg": float(d.mean()),
            "max": float(d.max()),
            "min": float(d.min()),
            "std": float(d.std()),
        }


def pipeline_path(writer_node: int, replicas: tuple[int, ...]) -> list[str]:
    """Resources one replication pipeline occupies.

    The stream leaves the writer's NIC (unless the first replica is the
    writer itself — HDFS's local write), lands on each replica's disk, and
    is forwarded through each intermediate replica's NIC pair.
    """
    if not replicas:
        raise ValueError("pipeline needs at least one replica")
    path: list[str] = []
    prev = writer_node
    for node in replicas:
        if node != prev:
            path.append(nic_tx(prev))
            path.append(nic_rx(node))
        path.append(disk(node))
        prev = node
    # A pathological placement repeating resources would break the flow
    # model; replicas are distinct nodes so only writer==first can dedupe.
    seen: set[str] = set()
    deduped = []
    for r in path:
        if r not in seen:
            seen.add(r)
            deduped.append(r)
    return deduped


class DatasetIngest:
    """Write a dataset onto the cluster with timed pipeline replication."""

    def __init__(
        self,
        fs: DistributedFileSystem,
        writers: ProcessPlacement,
        dataset: Dataset,
        *,
        assignment: Assignment | None = None,
        seed: int | np.random.Generator = 0,
    ) -> None:
        """
        Parameters
        ----------
        writers:
            The writer processes (MPI ranks) and their nodes.
        assignment:
            Which writer writes which file (task ids index ``dataset.files``);
            defaults to the rank-interval split the paper's MPI writers use.
        """
        self.fs = fs
        self.writers = writers
        self.dataset = dataset
        if assignment is None:
            assignment = rank_interval_assignment(
                len(dataset.files), writers.num_processes
            )
        assignment.validate(len(dataset.files))
        self.assignment = assignment
        self.rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )

        self.sim = Simulation()
        self.sim.add_resources(cluster_resources(fs.spec))
        self._records: list[WriteRecord] = []
        self._seq = 0
        self._bytes = 0

    def _place_all(self) -> dict[ChunkId, tuple[int, ...]]:
        """Allocate every chunk's replicas (metadata-first, as HDFS does),
        with the writer node offered to the placement policy."""
        owner = self.assignment.process_of()
        layout: dict[ChunkId, tuple[int, ...]] = {}
        # Placement reads the candidate list; it never changes mid-layout.
        candidates = self.fs.cluster.active_nodes
        for file_idx, meta in enumerate(self.dataset.files):
            writer_node = self.writers.node_of(owner[file_idx])
            for chunk in meta.chunks:
                layout[chunk.id] = self.fs.placement.place_chunk(
                    chunk,
                    self.fs.spec,
                    candidates,
                    self.fs.replication,
                    self.fs.rng,
                    writer_node,
                )
        return layout

    def run(self) -> IngestResult:
        """Place, register and stream every chunk; returns timing."""
        self.fs.namenode.check_new_dataset(self.dataset)
        layout = self._place_all()
        self.fs.store(self.dataset, layout)

        # Per-writer sequential chunk streams.
        queues: dict[int, deque[Chunk]] = {}
        owner = self.assignment.process_of()
        for file_idx, meta in enumerate(self.dataset.files):
            queues.setdefault(owner[file_idx], deque()).extend(meta.chunks)

        def start_next(rank: int) -> None:
            queue = queues.get(rank)
            if not queue:
                return
            chunk = queue.popleft()
            writer_node = self.writers.node_of(rank)
            replicas = layout[chunk.id]
            path = pipeline_path(writer_node, replicas)
            has_network_hop = any(not r.startswith("disk") for r in path)
            latency = self.fs.spec.seek_latency + (
                self.fs.spec.remote_latency if has_network_hop else 0.0
            )
            issue = self.sim.now

            def begin_flow() -> None:
                self.sim.start_flow(
                    chunk.size,
                    path,
                    lambda _flow: finish(chunk, replicas, issue, rank),
                    # A purely local write streams at disk speed; any
                    # networked pipeline is one TCP stream end to end.
                    rate_cap=(
                        self.fs.spec.remote_stream_bw if has_network_hop else None
                    ),
                )

            self.sim.schedule(latency, begin_flow)

        def finish(chunk: Chunk, replicas: tuple[int, ...], issue: float, rank: int) -> None:
            self._records.append(
                WriteRecord(
                    seq=self._seq,
                    writer_rank=rank,
                    writer_node=self.writers.node_of(rank),
                    chunk=chunk.id,
                    pipeline=replicas,
                    issue_time=issue,
                    end_time=self.sim.now,
                )
            )
            self._seq += 1
            self._bytes += chunk.size
            start_next(rank)

        for rank in range(self.writers.num_processes):
            start_next(rank)
        self.sim.run()
        return IngestResult(
            records=self._records,
            makespan=self.sim.now,
            bytes_written=self._bytes,
        )
