"""Application models from the paper: ParaView, mpiBLAST, multi-input tasks."""

from .._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        "mpiblast": (
            "BlastReport",
            "FragmentResult",
            "MpiBlastConfig",
            "MpiBlastProtocol",
            "MpiBlastRun",
            "replay_protocol",
        ),
        "multiblock_io": (
            "VTK_DATASET_TYPES",
            "MultiBlockPiece",
            "meta_to_xml",
            "parse_meta_xml",
            "read_meta_file",
            "write_meta_file",
        ),
        "multi_input": ("MultiInputComparison", "MultiInputOutcome"),
        "paraview": (
            "MultiBlockMetaFile",
            "ParaViewConfig",
            "ParaViewMultiBlockReader",
            "ParaViewResult",
        ),
    },
)
