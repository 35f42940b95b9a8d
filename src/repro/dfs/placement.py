"""Replica placement policies.

When a dataset is stored, the file system picks ``r`` distinct DataNodes for
every chunk.  The paper's analysis (§III) assumes the HDFS default it calls
"randomly distribute[d] … with several identical copies": each chunk lands on
``r`` nodes chosen uniformly without replacement.  We implement that policy
plus two richer ones:

* :class:`HdfsWriterLocalPlacement` — real HDFS semantics when the writer is
  a cluster node: first replica on the writer, second on a different rack,
  third on the second's rack.
* :class:`SkewedPlacement` — models the §IV-B observation that "node addition
  or removal could cause an unbalanced redistribution of data" by excluding
  late-joining nodes from placement and/or biasing choice.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ..draws import choice_rows
from .chunk import Chunk, ChunkId, Dataset
from .cluster import ClusterSpec

#: HDFS default replication factor, used throughout the paper.
DEFAULT_REPLICATION = 3


class PlacementPolicy(ABC):
    """Strategy deciding which nodes hold each chunk's replicas."""

    @abstractmethod
    def place_chunk(
        self,
        chunk: Chunk,
        cluster: ClusterSpec,
        candidates: list[int],
        replication: int,
        rng: np.random.Generator,
        writer_node: int | None = None,
    ) -> tuple[int, ...]:
        """Return the node ids that will hold ``chunk``'s replicas.

        ``candidates`` is the set of active nodes; the result must be
        ``min(replication, len(candidates))`` distinct members of it.
        """

    def place_dataset(
        self,
        dataset: Dataset,
        cluster: ClusterSpec,
        candidates: list[int],
        replication: int,
        rng: np.random.Generator,
        writer_node: int | None = None,
    ) -> dict[ChunkId, tuple[int, ...]]:
        """Place every chunk of ``dataset``; returns chunk → replica nodes."""
        _check_request(candidates, replication)
        layout: dict[ChunkId, tuple[int, ...]] = {}
        for chunk in dataset.iter_chunks():
            nodes = self.place_chunk(chunk, cluster, candidates, replication, rng, writer_node)
            if len(set(nodes)) != len(nodes):
                raise RuntimeError(f"policy produced duplicate replicas for {chunk.id}")
            layout[chunk.id] = nodes
        return layout


def _check_request(candidates: list[int], replication: int) -> None:
    if replication <= 0:
        raise ValueError("replication must be positive")
    if not candidates:
        raise ValueError("no candidate nodes to place on")


class RandomPlacement(PlacementPolicy):
    """Uniform random placement: r distinct nodes per chunk.

    This is the model behind the paper's locality/balance analysis — the
    probability that a given node holds a given chunk is exactly ``r/m``.
    :meth:`place_chunk` is one ``rng.choice`` per chunk;
    :meth:`place_dataset` draws the whole layout in one pass
    (:func:`repro.draws.choice_rows`), with the same result and the same
    ``rng`` state after it as :meth:`place_chunk` chunk by chunk.
    """

    def place_dataset(
        self,
        dataset: Dataset,
        cluster: ClusterSpec,
        candidates: list[int],
        replication: int,
        rng: np.random.Generator,
        writer_node: int | None = None,
    ) -> dict[ChunkId, tuple[int, ...]]:
        _check_request(candidates, replication)
        chunks = list(dataset.iter_chunks())
        r = min(replication, len(candidates))
        rows = choice_rows(rng, len(candidates), r, len(chunks))
        return {
            chunk.id: tuple(sorted([candidates[i] for i in row]))
            for chunk, row in zip(chunks, rows)
        }

    def place_chunk(
        self,
        chunk: Chunk,
        cluster: ClusterSpec,
        candidates: list[int],
        replication: int,
        rng: np.random.Generator,
        writer_node: int | None = None,
    ) -> tuple[int, ...]:
        r = min(replication, len(candidates))
        picked = rng.choice(len(candidates), size=r, replace=False)
        return tuple(sorted(candidates[i] for i in picked))


class HdfsWriterLocalPlacement(PlacementPolicy):
    """HDFS default placement with a known writer.

    Replica 1 on the writer's node; replica 2 on a node in a different rack
    (random node if only one rack); replica 3 in the same rack as replica 2;
    further replicas random.  The paper's MPI writers produce exactly this
    layout when data is ingested from the cluster itself.
    """

    def place_chunk(
        self,
        chunk: Chunk,
        cluster: ClusterSpec,
        candidates: list[int],
        replication: int,
        rng: np.random.Generator,
        writer_node: int | None = None,
    ) -> tuple[int, ...]:
        cand = set(candidates)
        chosen: list[int] = []
        multi_rack = cluster.num_racks > 1

        def pick(pool: list[int]) -> int | None:
            pool = [p for p in pool if p in cand and p not in chosen]
            if not pool:
                return None
            return pool[int(rng.integers(len(pool)))]

        if writer_node is not None and writer_node in cand:
            chosen.append(writer_node)
        else:
            first = pick(candidates)
            if first is not None:
                chosen.append(first)

        while len(chosen) < min(replication, len(cand)):
            if len(chosen) == 1 and multi_rack:
                rack = cluster.rack_of(chosen[0])
                other_rack = [n for n in candidates if cluster.rack_of(n) != rack]
                nxt = pick(other_rack) or pick(candidates)
            elif len(chosen) == 2 and multi_rack:
                rack = cluster.rack_of(chosen[1])
                same_rack = [n for n in candidates if cluster.rack_of(n) == rack]
                nxt = pick(same_rack) or pick(candidates)
            else:
                nxt = pick(candidates)
            if nxt is None:
                break
            chosen.append(nxt)
        return tuple(chosen)


@dataclass
class SkewedPlacement(PlacementPolicy):
    """Random placement with injected imbalance.

    ``excluded_fraction`` of the candidate nodes (the "recently added" ones)
    receive no replicas at all — as after a node addition before any
    rebalance — and the remainder optionally receive geometrically biased
    load via ``bias`` (> 0 skews toward low node ids).
    """

    excluded_fraction: float = 0.25
    bias: float = 0.0
    _excluded_cache: dict[tuple[int, ...], set[int]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.excluded_fraction < 1:
            raise ValueError("excluded_fraction must be in [0, 1)")
        if self.bias < 0:
            raise ValueError("bias must be non-negative")

    def _eligible(self, candidates: list[int]) -> list[int]:
        key = tuple(candidates)
        if key not in self._excluded_cache:
            k = int(len(candidates) * self.excluded_fraction)
            # Deterministically exclude the highest-numbered nodes: these are
            # the "new" nodes in a grow-the-cluster scenario.
            self._excluded_cache[key] = set(sorted(candidates)[len(candidates) - k :])
        excluded = self._excluded_cache[key]
        eligible = [c for c in candidates if c not in excluded]
        return eligible if eligible else list(candidates)

    def place_chunk(
        self,
        chunk: Chunk,
        cluster: ClusterSpec,
        candidates: list[int],
        replication: int,
        rng: np.random.Generator,
        writer_node: int | None = None,
    ) -> tuple[int, ...]:
        eligible = self._eligible(candidates)
        r = min(replication, len(eligible))
        if self.bias > 0:
            ranks = np.arange(len(eligible), dtype=float)
            weights = np.exp(-self.bias * ranks / max(len(eligible) - 1, 1))
            weights /= weights.sum()
            picked = rng.choice(len(eligible), size=r, replace=False, p=weights)
        else:
            picked = rng.choice(len(eligible), size=r, replace=False)
        return tuple(sorted(eligible[i] for i in picked))
