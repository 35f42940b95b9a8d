"""Layout snapshots: capture and replay an exact cluster data layout.

A reproduction claim is strongest when the *layout* — not just the seed —
can be shipped alongside the results.  These helpers serialise a stored
file system's datasets and chunk→replica map to JSON and restore them
into a fresh :class:`DistributedFileSystem`, bypassing the placement
policy entirely.  Together with :mod:`repro.core.serialization`'s
assignment files, a whole experiment becomes a pair of artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path

from .chunk import Chunk, ChunkId, Dataset, FileMeta
from .filesystem import DistributedFileSystem

FORMAT_VERSION = 1

_TOKEN_MASK = (1 << 64) - 1


def layout_token(locations: dict[ChunkId, tuple[int, ...]]) -> int:
    """A cheap 64-bit content token for a chunk→replica-nodes map.

    Order-independent (summing per-entry hashes commutes), so two
    snapshots with the same chunk→nodes content produce the same token
    regardless of dict ordering; any replica move, add or drop changes
    an entry hash and thus (except for engineered collisions) the token.
    :class:`repro.dfs.NameNode` maintains the same token incrementally
    (``NameNode.layout_token``) so live file systems answer it in O(1);
    this function is the from-scratch definition the incremental one is
    tested against, and serves ad-hoc location dicts.  In-memory use
    only — ``hash`` is salted per interpreter, so tokens must never be
    persisted or compared across processes.
    """
    total = len(locations)
    for cid, nodes in locations.items():
        total = (total + hash((cid, nodes))) & _TOKEN_MASK
    return total


def snapshot_to_dict(fs: DistributedFileSystem) -> dict:
    """Serialise every dataset and replica location of a file system."""
    datasets = []
    for name in fs.namenode.list_datasets():
        ds = fs.namenode.dataset(name)
        datasets.append(
            {
                "name": ds.name,
                "files": [
                    {
                        "name": meta.name,
                        "chunks": [c.size for c in meta.chunks],
                    }
                    for meta in ds.files
                ],
            }
        )
    locations = {
        f"{cid.file}#{cid.index}": list(nodes)
        for cid, nodes in fs.layout_snapshot().items()
    }
    return {
        "format": FORMAT_VERSION,
        "kind": "layout_snapshot",
        "num_nodes": fs.num_nodes,
        "replication": fs.replication,
        "datasets": datasets,
        "locations": locations,
    }


def save_snapshot(fs: DistributedFileSystem, path: str | Path) -> Path:
    """Write the file system's layout snapshot to a JSON file."""
    path = Path(path)
    path.write_text(json.dumps(snapshot_to_dict(fs), indent=2))
    return path


def _parse_chunk_key(key: str) -> ChunkId:
    file, _, index = key.rpartition("#")
    if not file:
        raise ValueError(f"malformed chunk key {key!r}")
    return ChunkId(file, int(index))


def restore_snapshot(fs: DistributedFileSystem, data: dict) -> list[str]:
    """Load a snapshot into a fresh file system; returns dataset names.

    The target must have at least as many nodes as the snapshot used and
    must not already contain any of the snapshot's datasets.  Placement
    policy and RNG are bypassed: replicas land exactly where recorded.
    Node ids and dataset names are checked before anything is stored, so
    a snapshot rejected for either leaves the target as it was.
    """
    if data.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported snapshot format {data.get('format')!r}")
    if data.get("kind") != "layout_snapshot":
        raise ValueError(f"not a layout snapshot: {data.get('kind')!r}")
    if fs.num_nodes < int(data["num_nodes"]):
        raise ValueError(
            f"snapshot needs {data['num_nodes']} nodes, target has {fs.num_nodes}"
        )
    locations = {
        _parse_chunk_key(key): tuple(int(n) for n in nodes)
        for key, nodes in data["locations"].items()
    }
    unknown = sorted(
        {n for nodes in locations.values() for n in nodes} - fs.datanodes.keys()
    )
    if unknown:
        raise ValueError(
            f"snapshot places replicas on node ids {unknown}, which the "
            f"{fs.num_nodes}-node target does not have"
        )
    datasets = []
    for ds_doc in data["datasets"]:
        ds = Dataset(ds_doc["name"])
        for file_doc in ds_doc["files"]:
            chunks = tuple(
                Chunk(ChunkId(file_doc["name"], i), int(size))
                for i, size in enumerate(file_doc["chunks"])
            )
            ds.add_file(FileMeta(file_doc["name"], chunks))
        fs.namenode.check_new_dataset(ds)
        datasets.append(ds)
    for ds in datasets:
        fs.store(ds, locations)
    return [ds.name for ds in datasets]


def load_snapshot(fs: DistributedFileSystem, path: str | Path) -> list[str]:
    """Read a snapshot file and restore it into ``fs``."""
    return restore_snapshot(fs, json.loads(Path(path).read_text()))
