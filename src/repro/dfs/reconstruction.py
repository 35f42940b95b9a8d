"""Data reconstruction: co-locating multi-input task data (MRAP-style).

§V-C concedes Opass's limit: "if a data processing task involves too many
inputs, our method may not work as well and data reconstruction/
redistribution [19, MRAP] may be needed.  Data reconstruction or
redistribution is beyond the scope of this paper."  This module implements
that out-of-scope step so the ablations can quantify the trade:

Given a set of multi-input tasks, pick an *anchor node* per task (the node
already holding the most of the task's data — a replica there becomes the
co-location point) and migrate one replica of every other input chunk to
it.  Anchors are chosen with a balance cap so reconstructed primaries
spread across the cluster.  After reconstruction each task has a node
where its entire input is local, so Algorithm 1 recovers (near-)full
locality — at the price of real data movement, which is reported.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .chunk import ChunkId
from .filesystem import DistributedFileSystem

logger = logging.getLogger(__name__)

if TYPE_CHECKING:  # pragma: no cover - avoid a dfs -> core import cycle
    from ..core.tasks import Task


@dataclass
class ReconstructionReport:
    """What a reconstruction pass moved."""

    anchor_of: dict[int, int] = field(default_factory=dict)  # task -> node
    copies: list[tuple[ChunkId, int]] = field(default_factory=list)
    bytes_copied: int = 0

    @property
    def num_copies(self) -> int:
        return len(self.copies)


def reconstruct_for_tasks(
    fs: DistributedFileSystem,
    tasks: "list[Task]",
    *,
    max_tasks_per_node: int | None = None,
) -> ReconstructionReport:
    """Co-locate every task's inputs on one anchor node.

    ``max_tasks_per_node`` caps how many tasks may anchor on the same node
    (default: the even share, ⌈tasks/nodes⌉) so the reconstructed layout
    stays balanced.  Copies are *added* replicas (registered with the
    NameNode and the anchor DataNode); nothing is deleted, mirroring an
    MRAP-style reorganisation that materialises an access-pattern-friendly
    copy.  A cap too tight for the task count raises before any copy is
    made.
    """
    if not tasks:
        return ReconstructionReport()
    nodes = fs.cluster.active_nodes
    if max_tasks_per_node is None:
        max_tasks_per_node = -(-len(tasks) // len(nodes))
    if max_tasks_per_node <= 0:
        raise ValueError("max_tasks_per_node must be positive")
    if max_tasks_per_node * len(nodes) < len(tasks):
        raise RuntimeError(
            f"anchor cap too tight for the task count: {max_tasks_per_node} "
            f"per node x {len(nodes)} active nodes < {len(tasks)} tasks"
        )

    report = ReconstructionReport()
    anchor_load: dict[int, int] = {n: 0 for n in nodes}

    # Largest tasks first: they are the most expensive to move, so they get
    # first pick of anchors.
    sizes = {
        t.task_id: sum(fs.chunk(cid).size for cid in t.inputs) for t in tasks
    }
    for task in sorted(tasks, key=lambda t: (-sizes[t.task_id], t.task_id)):
        # Bytes of this task already present per candidate node.
        present: dict[int, int] = {}
        for cid in task.inputs:
            for node in fs.namenode.locations_of(cid):
                if node in anchor_load:
                    present[node] = present.get(node, 0) + fs.chunk(cid).size
        candidates = [n for n in nodes if anchor_load[n] < max_tasks_per_node]
        anchor = max(candidates, key=lambda n: (present.get(n, 0), -n))
        anchor_load[anchor] += 1
        report.anchor_of[task.task_id] = anchor
        for cid in task.inputs:
            if anchor in fs.namenode.locations_of(cid):
                continue
            size = fs.chunk(cid).size
            fs.datanodes[anchor].add_replica(cid, size)
            fs.namenode.add_replica(cid, anchor)
            report.copies.append((cid, anchor))
            report.bytes_copied += size
    logger.info(
        "reconstruction: %d tasks anchored, %d copies, %.1f MB moved",
        len(report.anchor_of), report.num_copies, report.bytes_copied / 1e6,
    )
    return report
