"""The process↔task locality graph (paper §IV-A, Figure 4).

Opass "retrieve[s] data distribution information from storage and build[s]
the locality relationship between processes and chunk files" as a bipartite
graph G = (P, F, E): an edge connects process ``p_i`` and task ``f_j`` iff
some of ``f_j``'s data is co-located with ``p_i``, with capacity equal to the
co-located byte count.

The graph is built purely from NameNode metadata
(:meth:`repro.dfs.DistributedFileSystem.layout_snapshot`), which is all Opass
is allowed to read — it "does not modify the design of HDFS".

Since PR 5 the edge set lives in a flat CSR (:mod:`repro.core.csr`) built
in one pass over the snapshot; the dict views (``colocated``,
``task_ranks``, ``edges_of_process``) are materialised lazily for
compatibility and expose exactly the rows the dict-based builder produced.
:func:`graph_from_filesystem` additionally memoises snapshot→graph builds
in a small LRU keyed by a cheap layout content token, so repeated
experiments over an unchanged cluster skip the rebuild entirely.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..dfs.chunk import ChunkId
from ..dfs.filesystem import DistributedFileSystem
from .csr import LocalityCSR, build_csr, csr_from_rows
from .perf import SchedPerf, wall_clock
from .tasks import Task


@dataclass(frozen=True, slots=True)
class ProcessPlacement:
    """Where each parallel process (MPI rank) runs: rank → node id."""

    nodes: tuple[int, ...]  # nodes[rank] = node id

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("need at least one process")
        if any(n < 0 for n in self.nodes):
            raise ValueError("node ids must be non-negative")

    @classmethod
    def one_per_node(cls, num_nodes: int) -> "ProcessPlacement":
        """The paper's usual deployment: rank i on node i."""
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        return cls(tuple(range(num_nodes)))

    @classmethod
    def k_per_node(cls, num_nodes: int, k: int) -> "ProcessPlacement":
        """k ranks on every node (block placement: ranks i*k..i*k+k-1 on node i)."""
        if num_nodes <= 0 or k <= 0:
            raise ValueError("num_nodes and k must be positive")
        return cls(tuple(i for i in range(num_nodes) for _ in range(k)))

    @property
    def num_processes(self) -> int:
        return len(self.nodes)

    def node_of(self, rank: int) -> int:
        if not 0 <= rank < len(self.nodes):
            raise KeyError(f"no rank {rank}")
        return self.nodes[rank]

    def ranks_on_node(self) -> dict[int, list[int]]:
        by_node: dict[int, list[int]] = {}
        for rank, node in enumerate(self.nodes):
            by_node.setdefault(node, []).append(rank)
        return by_node


class LocalityGraph:
    """Bipartite process↔task graph with co-located-bytes edge weights.

    The canonical storage is the CSR (:attr:`csr`); the historical dict
    views are materialised on first access and cached.  Constructible
    either from a CSR (the fast path used by :func:`build_locality_graph`)
    or from the original ``colocated``/``task_ranks`` dicts (sub-graphs,
    hand-built tests) — the two forms are interchangeable.
    """

    __slots__ = (
        "placement",
        "tasks",
        "sizes",
        "_csr",
        "_colocated",
        "_task_ranks",
        "_weight_maps",
        "_task_bytes",
        "_scratch",
    )

    def __init__(
        self,
        placement: ProcessPlacement,
        tasks: list[Task],
        sizes: dict[ChunkId, int],
        colocated: dict[int, dict[int, int]] | None = None,
        task_ranks: dict[int, list[int]] | None = None,
        csr: LocalityCSR | None = None,
    ) -> None:
        self.placement = placement
        self.tasks = tasks
        self.sizes = sizes
        self._csr = csr
        if csr is None and colocated is None and task_ranks is None:
            colocated, task_ranks = {}, {}
        self._colocated = colocated
        self._task_ranks = task_ranks
        self._weight_maps: list[dict[int, int]] | None = None
        self._task_bytes: list[int] | None = None
        self._scratch: dict[object, object] | None = None

    # -- representations ------------------------------------------------------

    @property
    def csr(self) -> LocalityCSR:
        """The flat CSR form (built lazily for dict-constructed graphs)."""
        if self._csr is None:
            self._csr = csr_from_rows(
                self.num_processes,
                self.num_tasks,
                self._colocated if self._colocated is not None else {},
                self._task_ranks if self._task_ranks is not None else {},
            )
        return self._csr

    @property
    def colocated(self) -> dict[int, dict[int, int]]:
        """colocated[rank][task_id] = bytes of the task's inputs on rank's node."""
        if self._colocated is None:
            csr = self.csr
            ptr, tasks_, weights = csr.proc_ptr, csr.proc_task, csr.proc_weight
            mirror: dict[int, dict[int, int]] = {}
            for rank in range(csr.num_processes):
                row: dict[int, int] = {}
                for j in range(ptr[rank], ptr[rank + 1]):
                    row[tasks_[j]] = weights[j]
                mirror[rank] = row
            self._colocated = mirror
        return self._colocated

    @property
    def task_ranks(self) -> dict[int, list[int]]:
        """task_ranks[task_id] = ranks with an edge to the task (sorted)."""
        if self._task_ranks is None:
            csr = self.csr
            ptr, ranks = csr.task_ptr, csr.task_rank
            self._task_ranks = {
                t: ranks[ptr[t] : ptr[t + 1]] for t in range(csr.num_tasks)
            }
        return self._task_ranks

    @property
    def scratch(self) -> dict[object, object]:
        """Per-graph memo for solver results.

        The graph's edge data is immutable after construction, so anything
        deterministically derived from it — e.g. the single-data max-flow
        for a given quota vector and solver — can be cached here instead
        of being recomputed on every solve.  Keys are namespaced tuples
        chosen by the solver module that owns the entry.
        """
        if self._scratch is None:
            self._scratch = {}
        return self._scratch

    # -- sizes -----------------------------------------------------------------

    @property
    def num_processes(self) -> int:
        return self.placement.num_processes

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def num_edges(self) -> int:
        if self._csr is not None:
            return self._csr.num_edges
        colocated = self._colocated if self._colocated is not None else {}
        return sum(len(d) for d in colocated.values())

    # -- queries ---------------------------------------------------------------

    def edge_weight(self, rank: int, task_id: int) -> int:
        """Co-located bytes between a process and a task (0 if no edge)."""
        maps = self._weight_maps
        if maps is None:
            csr = self.csr
            ptr, tasks_, weights = csr.proc_ptr, csr.proc_task, csr.proc_weight
            maps = []
            for r in range(csr.num_processes):
                row: dict[int, int] = {}
                for j in range(ptr[r], ptr[r + 1]):
                    row[tasks_[j]] = weights[j]
                maps.append(row)
            self._weight_maps = maps
        if not 0 <= rank < len(maps):
            return 0
        return maps[rank].get(task_id, 0)

    def edges_of_process(self, rank: int) -> dict[int, int]:
        """task_id → co-located bytes for one process."""
        csr = self.csr
        lo, hi = csr.proc_ptr[rank], csr.proc_ptr[rank + 1]
        tasks_, weights = csr.proc_task, csr.proc_weight
        return {tasks_[j]: weights[j] for j in range(lo, hi)}

    def ranks_of_task(self, task_id: int) -> list[int]:
        csr = self.csr
        if not 0 <= task_id < csr.num_tasks:
            return []
        lo, hi = csr.task_ptr[task_id], csr.task_ptr[task_id + 1]
        return csr.task_rank[lo:hi]

    def task_bytes(self, task_id: int) -> int:
        cached = self._task_bytes
        if cached is None:
            sizes = self.sizes
            cached = [
                sum(sizes[cid] for cid in t.inputs) for t in self.tasks
            ]
            self._task_bytes = cached
        return cached[task_id]

    def total_bytes(self) -> int:
        return sum(self.task_bytes(t.task_id) for t in self.tasks)

    def local_bytes_of_process(self, rank: int) -> int:
        """d(p_i): total bytes stored on rank's node among all task inputs."""
        csr = self.csr
        lo, hi = csr.proc_ptr[rank], csr.proc_ptr[rank + 1]
        weights = csr.proc_weight
        return sum(weights[j] for j in range(lo, hi))


def build_locality_graph(
    tasks: list[Task],
    locations: dict[ChunkId, tuple[int, ...]],
    sizes: dict[ChunkId, int],
    placement: ProcessPlacement,
    *,
    perf: SchedPerf | None = None,
) -> LocalityGraph:
    """Construct the Figure-4 graph from raw layout metadata.

    For every task input chunk with a replica on a process's node, the
    (process, task) edge weight grows by the chunk size — the "amount of data
    associated with f_j that can be accessed locally by p_i".  One pass over
    the task list fills the CSR directly (see :mod:`repro.core.csr`).
    """
    t0 = wall_clock() if perf is not None else 0.0
    csr = build_csr(tasks, locations, sizes, placement)
    graph = LocalityGraph(
        placement=placement,
        tasks=list(tasks),
        sizes=dict(sizes),
        csr=csr,
    )
    if perf is not None:
        perf.graph_builds += 1
        perf.graph_edges += csr.num_edges
        perf.graph_build_wall += wall_clock() - t0
    return graph


#: snapshot→graph memo for :func:`graph_from_filesystem`, LRU-evicted.
#: Keys combine the layout content token with the placement and the task
#: count; the (potentially long) task list itself is kept out of the key —
#: hashing 10k frozen dataclasses would cost more than the rebuild saves —
#: and is instead equality-verified on lookup (cheap: list compare
#: short-circuits on element identity).  In-memory only; cached graphs
#: are shared, which is safe because matching kernels are pure readers
#: (OPS103).
_GRAPH_CACHE: OrderedDict[tuple[int, tuple[int, ...], int], LocalityGraph] = (
    OrderedDict()
)

#: Maximum cached graphs; a handful covers the repeated-experiment loop
#: shapes in the benchmarks while bounding memory.
GRAPH_CACHE_CAPACITY = 8

_CACHE_STATS = {"hits": 0, "misses": 0}


def clear_graph_cache() -> None:
    """Drop every cached snapshot→graph entry and zero the stats."""
    _GRAPH_CACHE.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


def graph_cache_stats() -> dict[str, int]:
    """Current cache occupancy and hit/miss counters."""
    return {
        "entries": len(_GRAPH_CACHE),
        "hits": _CACHE_STATS["hits"],
        "misses": _CACHE_STATS["misses"],
    }


def graph_from_filesystem(
    fs: DistributedFileSystem,
    tasks: list[Task],
    placement: ProcessPlacement,
    *,
    perf: SchedPerf | None = None,
    cache: bool = True,
) -> LocalityGraph:
    """Build the locality graph straight from a live file system's NameNode.

    Repeated calls with an unchanged layout, task list and placement return
    the cached graph instead of rebuilding.  The cache key uses the
    NameNode's incrementally maintained ``layout_token`` (identical by
    construction to :func:`repro.dfs.snapshot.layout_token` over the
    snapshot), so a hit costs O(1) — no snapshot copy, no map rescan.
    Pass ``cache=False`` to force a fresh build.
    """
    if cache:
        key = (fs.layout_token, placement.nodes, len(tasks))
        # List equality short-circuits on element identity (the common
        # case: callers re-pass the same Task objects every round), so
        # this verify costs microseconds, not a 10k-dataclass compare.
        hit = _GRAPH_CACHE.get(key)
        if hit is not None and hit.tasks == tasks:
            _GRAPH_CACHE.move_to_end(key)
            _CACHE_STATS["hits"] += 1
            if perf is not None:
                perf.cache_hits += 1
            return hit
        _CACHE_STATS["misses"] += 1
        if perf is not None:
            perf.cache_misses += 1
    locations = fs.layout_snapshot()
    sizes = {cid: fs.chunk(cid).size for t in tasks for cid in t.inputs}
    graph = build_locality_graph(tasks, locations, sizes, placement, perf=perf)
    if cache:
        _GRAPH_CACHE[key] = graph
        while len(_GRAPH_CACHE) > GRAPH_CACHE_CAPACITY:
            _GRAPH_CACHE.popitem(last=False)
    return graph
