"""NameNode model: the namespace and block-location metadata service.

Opass's only requirement of the file system is the ability to "retrieve the
data layout information from the underlying distributed file system" —
the ``getFileBlockLocations`` call exposed through libhdfs.  The NameNode
here owns the file → chunks → replica-nodes mapping and answers exactly
those queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chunk import Chunk, ChunkId, Dataset, FileMeta

_TOKEN_MASK = (1 << 64) - 1


@dataclass
class NameNode:
    """Namespace plus chunk→replica-location index."""

    _files: dict[str, FileMeta] = field(default_factory=dict)
    _locations: dict[ChunkId, tuple[int, ...]] = field(default_factory=dict)
    # Direct ChunkId -> Chunk index so the read path's per-chunk metadata
    # query is one dict probe instead of a file-stat plus a tuple walk.
    _chunk_index: dict[ChunkId, Chunk] = field(default_factory=dict)
    _datasets: dict[str, Dataset] = field(default_factory=dict)
    # Running Σ hash((cid, nodes)) over _locations, mod 2^64.  Every
    # mutator below keeps it in sync, so layout_token is O(1) instead of
    # a full-map rescan.  The sum commutes, so mutation order is
    # irrelevant — the token matches repro.dfs.snapshot.layout_token
    # recomputed from scratch at all times.
    _token_sum: int = 0

    # -- namespace ---------------------------------------------------------

    def register_file(self, meta: FileMeta, locations: dict[ChunkId, tuple[int, ...]]) -> None:
        """Add a file and the replica locations of each of its chunks."""
        self._check_new_names([meta])
        self._add_files([meta], locations)

    def register_dataset(self, dataset: Dataset, layout: dict[ChunkId, tuple[int, ...]]) -> None:
        """Add every file of ``dataset`` and its chunks' replica locations.

        Every check runs before anything is added, so a rejected dataset
        leaves the namespace as it was.
        """
        self.check_new_dataset(dataset)
        self._add_files(dataset.files, layout)
        self._datasets[dataset.name] = dataset

    def check_new_dataset(self, dataset: Dataset) -> None:
        """Raise unless ``dataset``'s name and its file names are all new."""
        if dataset.name in self._datasets:
            raise ValueError(f"dataset {dataset.name!r} already exists")
        self._check_new_names(dataset.files)

    def _check_new_names(self, files: list[FileMeta]) -> None:
        seen: set[str] = set()
        for meta in files:
            if meta.name in self._files:
                raise ValueError(f"file {meta.name!r} already exists")
            if meta.name in seen:
                raise ValueError(f"duplicate file name {meta.name!r}")
            seen.add(meta.name)

    def _add_files(self, files: list[FileMeta], locations: dict[ChunkId, tuple[int, ...]]) -> None:
        """Check every chunk's locations, then add ``files``."""
        for meta in files:
            for chunk in meta.chunks:
                nodes = locations.get(chunk.id)
                if nodes is None:
                    raise ValueError(f"missing locations for {chunk.id}")
                if not nodes:
                    raise ValueError(f"chunk {chunk.id} has no replicas")
                if len(set(nodes)) != len(nodes):
                    raise ValueError(f"chunk {chunk.id} has duplicate replica nodes")
        for meta in files:
            self._files[meta.name] = meta
            for chunk in meta.chunks:
                nodes = tuple(locations[chunk.id])
                self._chunk_index[chunk.id] = chunk
                self._locations[chunk.id] = nodes
                self._token_sum = (self._token_sum + hash((chunk.id, nodes))) & _TOKEN_MASK

    def exists(self, name: str) -> bool:
        return name in self._files

    def stat(self, name: str) -> FileMeta:
        if name not in self._files:
            raise FileNotFoundError(name)
        return self._files[name]

    def list_files(self) -> list[str]:
        return sorted(self._files)

    def dataset(self, name: str) -> Dataset:
        if name not in self._datasets:
            raise KeyError(f"no dataset {name!r}")
        return self._datasets[name]

    def list_datasets(self) -> list[str]:
        return sorted(self._datasets)

    # -- block locations (the libhdfs surface Opass consumes) ---------------

    def get_block_locations(self, name: str) -> list[tuple[Chunk, tuple[int, ...]]]:
        """Per-chunk replica locations for one file, in chunk order."""
        meta = self.stat(name)
        return [(chunk, self._locations[chunk.id]) for chunk in meta.chunks]

    def locations_of(self, chunk_id: ChunkId) -> tuple[int, ...]:
        nodes = self._locations.get(chunk_id)
        if nodes is None:
            raise KeyError(f"unknown chunk {chunk_id}")
        return nodes

    def read_entry(self, chunk_id: ChunkId) -> tuple[Chunk, tuple[int, ...]]:
        """``(chunk, replica locations)`` in one call.

        The read hot path (:meth:`~repro.dfs.filesystem.
        DistributedFileSystem.resolve_read`) needs both; fetching them
        together hashes the chunk id once per table instead of paying
        two dispatches.
        """
        chunk = self._chunk_index.get(chunk_id)
        nodes = self._locations.get(chunk_id)
        if chunk is None or nodes is None:
            # Fall back to the slow paths for their error taxonomy.
            return self.chunk(chunk_id), self.locations_of(chunk_id)
        return chunk, nodes

    def chunk(self, chunk_id: ChunkId) -> Chunk:
        found = self._chunk_index.get(chunk_id)
        if found is not None:
            return found
        # Miss: re-derive through the namespace so the error taxonomy is
        # unchanged — unknown file raises FileNotFoundError (via stat),
        # known file with an out-of-range index raises KeyError.
        meta = self.stat(chunk_id.file)
        try:
            return meta.chunks[chunk_id.index]
        except IndexError:
            raise KeyError(f"unknown chunk {chunk_id}") from None

    def layout_snapshot(self) -> dict[ChunkId, tuple[int, ...]]:
        """A copy of the full chunk→nodes map (what Opass's graph builder reads)."""
        return dict(self._locations)

    @property
    def layout_token(self) -> int:
        """O(1) content token for the current chunk→nodes map.

        Equal to :func:`repro.dfs.snapshot.layout_token` applied to
        :meth:`layout_snapshot`, but maintained incrementally by the
        mutators instead of rescanning the map.  In-memory use only
        (``hash`` is salted per interpreter).
        """
        return (len(self._locations) + self._token_sum) & _TOKEN_MASK

    def _token_swap(
        self, cid: ChunkId, old: tuple[int, ...], new: tuple[int, ...]
    ) -> None:
        self._token_sum = (
            self._token_sum - hash((cid, old)) + hash((cid, new))
        ) & _TOKEN_MASK

    # -- maintenance ---------------------------------------------------------

    def drop_node_replicas(self, node_id: int) -> list[ChunkId]:
        """Remove ``node_id`` from every location list (node loss).

        Returns chunks that lost a replica.  Chunks whose last replica lived
        on the node are left with an empty location tuple; callers decide
        whether that is data loss or triggers re-replication.
        """
        touched = []
        for cid, nodes in self._locations.items():
            if node_id in nodes:
                remaining = tuple(n for n in nodes if n != node_id)
                self._locations[cid] = remaining
                self._token_swap(cid, nodes, remaining)
                touched.append(cid)
        return touched

    def add_replica(self, chunk_id: ChunkId, node_id: int) -> None:
        nodes = self.locations_of(chunk_id)
        if node_id in nodes:
            raise ValueError(f"{chunk_id} already on node {node_id}")
        grown = tuple(sorted((*nodes, node_id)))
        self._locations[chunk_id] = grown
        self._token_swap(chunk_id, nodes, grown)

    def remove_replica(self, chunk_id: ChunkId, node_id: int) -> None:
        """Drop one replica location (balancer delete-after-copy)."""
        nodes = self.locations_of(chunk_id)
        if node_id not in nodes:
            raise ValueError(f"{chunk_id} has no replica on node {node_id}")
        if len(nodes) == 1:
            raise ValueError(f"refusing to drop the last replica of {chunk_id}")
        shrunk = tuple(n for n in nodes if n != node_id)
        self._locations[chunk_id] = shrunk
        self._token_swap(chunk_id, nodes, shrunk)
