"""HDFS-like distributed file system substrate.

Models the pieces of HDFS that the Opass paper depends on: chunked files,
r-way replica placement, the NameNode block-location metadata service,
DataNode serve accounting, and the local-first/random-remote read policy.
"""

from .._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        "chunk": (
            "DEFAULT_CHUNK_SIZE",
            "MB",
            "Chunk",
            "ChunkId",
            "Dataset",
            "FileMeta",
            "dataset_from_sizes",
            "make_file",
            "uniform_dataset",
        ),
        "cluster": ("Cluster", "ClusterSpec", "NodeSpec"),
        "datanode": ("DataNode",),
        "filesystem": ("DistributedFileSystem", "ReadPlan"),
        "namenode": ("NameNode",),
        "placement": (
            "DEFAULT_REPLICATION",
            "HdfsWriterLocalPlacement",
            "PlacementPolicy",
            "RandomPlacement",
            "SkewedPlacement",
        ),
        "policies": (
            "FirstListed",
            "LeastLoaded",
            "RandomRemote",
            "ReplicaChoicePolicy",
        ),
        "rebalancer": ("RebalanceReport", "Rebalancer"),
        "reconstruction": ("ReconstructionReport", "reconstruct_for_tasks"),
        "snapshot": (
            "load_snapshot",
            "restore_snapshot",
            "save_snapshot",
            "snapshot_to_dict",
        ),
    },
)
