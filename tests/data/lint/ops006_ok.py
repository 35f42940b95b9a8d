# opass-lint: module=repro.simulate.example_ops006_ok
"""OPS006 clean twin: the simulator importing down the DAG."""

from typing import TYPE_CHECKING

from repro.core.tasks import Task  # simulate → core points down-rank
from repro.dfs.chunk import ChunkId

if TYPE_CHECKING:  # type-only imports never create a layering edge
    from repro.apps.paraview import ParaViewResult


def chunk_count(task: Task) -> int:
    return len(task.inputs)


def first_input(task: Task) -> ChunkId:
    return task.inputs[0]


def result_label(result: "ParaViewResult") -> str:
    return type(result).__name__
