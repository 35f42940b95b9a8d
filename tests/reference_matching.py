"""Frozen pre-CSR matching kernels (PR 5 differential oracle).

This module is a verbatim-behaviour snapshot of the scheduler-side hot
path as it stood *before* the CSR/array rewrite: dict-of-dict locality
graph, dataclass-edge max-flow and min-cost-flow solvers, and the
matching optimizers built on them.  The production modules in
``repro.core`` must reproduce every output of these functions
byte-for-byte; ``tests/test_properties_sched.py`` runs randomized
differential comparisons and ``benchmarks/bench_sched_performance.py``
uses them to measure the pre-PR throughput baseline.

Do not "improve" this file — its only job is to stay exactly as slow and
exactly as deterministic as the seed implementation.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.assignment import Assignment, equal_quotas
from repro.core.bipartite import ProcessPlacement
from repro.core.tasks import Task
from repro.dfs.chunk import ChunkId

_INF = 1 << 62


# -- locality graph (pre-CSR dict-of-dict form) --------------------------------


@dataclass
class RefLocalityGraph:
    """The seed bipartite graph: nested dicts, eagerly built."""

    placement: ProcessPlacement
    tasks: list[Task]
    sizes: dict[ChunkId, int]
    colocated: dict[int, dict[int, int]] = field(default_factory=dict)
    task_ranks: dict[int, list[int]] = field(default_factory=dict)

    @property
    def num_processes(self) -> int:
        return self.placement.num_processes

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def num_edges(self) -> int:
        return sum(len(d) for d in self.colocated.values())

    def edge_weight(self, rank: int, task_id: int) -> int:
        return self.colocated.get(rank, {}).get(task_id, 0)

    def edges_of_process(self, rank: int) -> dict[int, int]:
        return dict(self.colocated.get(rank, {}))

    def ranks_of_task(self, task_id: int) -> list[int]:
        return list(self.task_ranks.get(task_id, []))

    def task_bytes(self, task_id: int) -> int:
        return sum(self.sizes[cid] for cid in self.tasks[task_id].inputs)

    def total_bytes(self) -> int:
        return sum(self.task_bytes(t.task_id) for t in self.tasks)


def build_locality_graph_ref(
    tasks: list[Task],
    locations: dict[ChunkId, tuple[int, ...]],
    sizes: dict[ChunkId, int],
    placement: ProcessPlacement,
) -> RefLocalityGraph:
    ids = [t.task_id for t in tasks]
    if ids != list(range(len(tasks))):
        raise ValueError("task ids must be 0..n-1 in order")
    ranks_on = placement.ranks_on_node()
    colocated: dict[int, dict[int, int]] = {
        r: {} for r in range(placement.num_processes)
    }
    task_ranks: dict[int, list[int]] = {}
    for task in tasks:
        seen_ranks: set[int] = set()
        for cid in task.inputs:
            if cid not in locations:
                raise KeyError(f"no layout for chunk {cid}")
            if cid not in sizes:
                raise KeyError(f"no size for chunk {cid}")
            for node in locations[cid]:
                for rank in ranks_on.get(node, ()):
                    bucket = colocated[rank]
                    bucket[task.task_id] = bucket.get(task.task_id, 0) + sizes[cid]
                    seen_ranks.add(rank)
        task_ranks[task.task_id] = sorted(seen_ranks)
    return RefLocalityGraph(
        placement=placement,
        tasks=list(tasks),
        sizes=dict(sizes),
        colocated=colocated,
        task_ranks=task_ranks,
    )


# -- max flow (pre-array dataclass edges) --------------------------------------


@dataclass
class _Edge:
    to: int
    cap: int
    rev: int
    original_cap: int


@dataclass
class RefFlowNetwork:
    num_vertices: int
    adj: list[list[_Edge]] = field(init=False)

    def __post_init__(self) -> None:
        self.adj = [[] for _ in range(self.num_vertices)]

    def add_edge(self, u: int, v: int, capacity: int) -> tuple[int, int]:
        fwd = _Edge(to=v, cap=capacity, rev=len(self.adj[v]), original_cap=capacity)
        bwd = _Edge(to=u, cap=0, rev=len(self.adj[u]), original_cap=0)
        self.adj[u].append(fwd)
        self.adj[v].append(bwd)
        return (u, len(self.adj[u]) - 1)

    def flow_on(self, handle: tuple[int, int]) -> int:
        u, idx = handle
        edge = self.adj[u][idx]
        return edge.original_cap - edge.cap

    def edmonds_karp(self, source: int, sink: int) -> int:
        flow = 0
        while True:
            parent: list[tuple[int, int] | None] = [None] * self.num_vertices
            parent[source] = (source, -1)
            queue = deque([source])
            while queue and parent[sink] is None:
                u = queue.popleft()
                for idx, e in enumerate(self.adj[u]):
                    if e.cap > 0 and parent[e.to] is None:
                        parent[e.to] = (u, idx)
                        queue.append(e.to)
            if parent[sink] is None:
                return flow
            bottleneck = None
            v = sink
            while v != source:
                u, idx = parent[v]  # type: ignore[misc]
                cap = self.adj[u][idx].cap
                bottleneck = cap if bottleneck is None else min(bottleneck, cap)
                v = u
            assert bottleneck is not None and bottleneck > 0
            v = sink
            while v != source:
                u, idx = parent[v]  # type: ignore[misc]
                edge = self.adj[u][idx]
                edge.cap -= bottleneck
                self.adj[v][edge.rev].cap += bottleneck
                v = u
            flow += bottleneck

    def _bfs_levels(self, source: int, sink: int) -> list[int] | None:
        level = [-1] * self.num_vertices
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for e in self.adj[u]:
                if e.cap > 0 and level[e.to] < 0:
                    level[e.to] = level[u] + 1
                    queue.append(e.to)
        return level if level[sink] >= 0 else None

    def _dfs_blocking(
        self, u: int, sink: int, pushed: int, level: list[int], it: list[int]
    ) -> int:
        if u == sink:
            return pushed
        while it[u] < len(self.adj[u]):
            e = self.adj[u][it[u]]
            if e.cap > 0 and level[e.to] == level[u] + 1:
                d = self._dfs_blocking(e.to, sink, min(pushed, e.cap), level, it)
                if d > 0:
                    e.cap -= d
                    self.adj[e.to][e.rev].cap += d
                    return d
            it[u] += 1
        return 0

    def dinic(self, source: int, sink: int) -> int:
        flow = 0
        while True:
            level = self._bfs_levels(source, sink)
            if level is None:
                return flow
            it = [0] * self.num_vertices
            while True:
                pushed = self._dfs_blocking(source, sink, _INF, level, it)
                if pushed == 0:
                    break
                flow += pushed

    def max_flow(self, source: int, sink: int, *, algorithm: str = "dinic") -> int:
        if algorithm == "dinic":
            return self.dinic(source, sink)
        return self.edmonds_karp(source, sink)


# -- min-cost max-flow (pre-array, Bellman-Ford bootstrap always) --------------


@dataclass
class _Arc:
    to: int
    cap: int
    cost: int
    rev: int
    original_cap: int


@dataclass
class RefMinCostFlowNetwork:
    num_vertices: int
    adj: list[list[_Arc]] = field(init=False)

    def __post_init__(self) -> None:
        self.adj = [[] for _ in range(self.num_vertices)]

    def add_edge(self, u: int, v: int, capacity: int, cost: int) -> tuple[int, int]:
        fwd = _Arc(to=v, cap=capacity, cost=cost, rev=len(self.adj[v]),
                   original_cap=capacity)
        bwd = _Arc(to=u, cap=0, cost=-cost, rev=len(self.adj[u]), original_cap=0)
        self.adj[u].append(fwd)
        self.adj[v].append(bwd)
        return (u, len(self.adj[u]) - 1)

    def flow_on(self, handle: tuple[int, int]) -> int:
        u, idx = handle
        arc = self.adj[u][idx]
        return arc.original_cap - arc.cap

    def _initial_potentials(self, source: int) -> list[int]:
        dist = [_INF] * self.num_vertices
        dist[source] = 0
        for _ in range(self.num_vertices - 1):
            changed = False
            for u in range(self.num_vertices):
                if dist[u] == _INF:
                    continue
                for arc in self.adj[u]:
                    if arc.cap > 0 and dist[u] + arc.cost < dist[arc.to]:
                        dist[arc.to] = dist[u] + arc.cost
                        changed = True
            if not changed:
                break
        else:
            for u in range(self.num_vertices):
                if dist[u] == _INF:
                    continue
                for arc in self.adj[u]:
                    if arc.cap > 0 and dist[u] + arc.cost < dist[arc.to]:
                        raise ValueError("graph contains a negative-cost cycle")
        return dist

    def min_cost_flow(
        self, source: int, sink: int, max_flow: int | None = None
    ) -> tuple[int, int]:
        limit = _INF if max_flow is None else max_flow
        potential = self._initial_potentials(source)
        flow = 0
        total_cost = 0
        while flow < limit:
            dist = [_INF] * self.num_vertices
            parent: list[tuple[int, int] | None] = [None] * self.num_vertices
            dist[source] = 0
            heap = [(0, source)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for idx, arc in enumerate(self.adj[u]):
                    if arc.cap <= 0 or potential[u] == _INF:
                        continue
                    nd = d + arc.cost + potential[u] - potential[arc.to]
                    if nd < dist[arc.to]:
                        dist[arc.to] = nd
                        parent[arc.to] = (u, idx)
                        heapq.heappush(heap, (nd, arc.to))
            if dist[sink] == _INF:
                break
            for v in range(self.num_vertices):
                if dist[v] < _INF and potential[v] < _INF:
                    potential[v] += dist[v]
            push = limit - flow
            v = sink
            while v != source:
                u, idx = parent[v]  # type: ignore[misc]
                push = min(push, self.adj[u][idx].cap)
                v = u
            v = sink
            while v != source:
                u, idx = parent[v]  # type: ignore[misc]
                arc = self.adj[u][idx]
                arc.cap -= push
                self.adj[v][arc.rev].cap += push
                total_cost += push * arc.cost
                v = u
            flow += push
        return flow, total_cost


# -- single-data optimizer (pre-CSR network build) -----------------------------


def _fallback_distribute(assignment, unmatched, quotas, rng, policy):
    deficits = {
        rank: quotas[rank] - len(assignment.tasks_of.get(rank, []))
        for rank in range(len(quotas))
    }
    open_ranks = [r for r, d in deficits.items() if d > 0]
    if sum(deficits[r] for r in open_ranks) < len(unmatched):
        raise ValueError("quotas cannot absorb unmatched tasks")
    for task_id in unmatched:
        if policy == "random":
            rank = open_ranks[int(rng.integers(len(open_ranks)))]
        else:
            rank = min(open_ranks, key=lambda r: (len(assignment.tasks_of.get(r, [])), r))
        assignment.assign(rank, task_id)
        deficits[rank] -= 1
        if deficits[rank] == 0:
            open_ranks.remove(rank)


def optimize_single_data_ref(
    graph,
    *,
    quotas=None,
    capacity_mode: str = "unit",
    algorithm: str = "dinic",
    fallback: str = "random",
    seed=0,
):
    """The seed flow-based optimizer; returns ``(assignment, max_flow,
    matched, pending)``."""
    m, n = graph.num_processes, graph.num_tasks
    if quotas is None:
        quotas = equal_quotas(n, m)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    net = RefFlowNetwork(m + n + 2)
    s, t = 0, m + n + 1
    handles: dict[tuple[int, int], tuple[int, int]] = {}
    if capacity_mode == "unit":
        for rank in range(m):
            net.add_edge(s, 1 + rank, quotas[rank])
        for rank in range(m):
            for task_id in graph.edges_of_process(rank):
                handles[(rank, task_id)] = net.add_edge(1 + rank, 1 + m + task_id, 1)
        for task_id in range(n):
            net.add_edge(1 + m + task_id, t, 1)
    else:
        total_bytes = graph.total_bytes()
        quota_sum = sum(quotas)
        quotas_bytes = [-(-total_bytes * q // quota_sum) for q in quotas]
        for rank in range(m):
            net.add_edge(s, 1 + rank, quotas_bytes[rank])
        for rank in range(m):
            for task_id, weight in graph.edges_of_process(rank).items():
                handles[(rank, task_id)] = net.add_edge(
                    1 + rank, 1 + m + task_id, weight
                )
        for task_id in range(n):
            net.add_edge(1 + m + task_id, t, graph.task_bytes(task_id))

    max_flow = net.max_flow(s, t, algorithm=algorithm)

    assignment = Assignment.empty(m)
    flow_to: dict[int, list[tuple[int, int]]] = {}
    for (rank, task_id), handle in handles.items():
        f = net.flow_on(handle)
        if f > 0:
            flow_to.setdefault(task_id, []).append((f, rank))
    matched: set[int] = set()
    pending: list[int] = []
    for task_id in range(n):
        carriers = flow_to.get(task_id)
        if not carriers:
            pending.append(task_id)
            continue
        carriers.sort(reverse=True)
        best_flow = carriers[0][0]
        best_rank = min(r for f, r in carriers if f == best_flow)
        if capacity_mode == "unit" or best_flow * 2 >= graph.task_bytes(task_id):
            assignment.assign(best_rank, task_id)
            matched.add(task_id)
        else:
            pending.append(task_id)

    for rank in range(m):
        ts = assignment.tasks_of.get(rank, [])
        while len(ts) > quotas[rank]:
            worst_i, worst = min(
                enumerate(ts),
                key=lambda it: (graph.edge_weight(rank, it[1]), -it[1]),
            )
            del ts[worst_i]
            matched.discard(worst)
            pending.append(worst)
    pending.sort()

    _fallback_distribute(assignment, pending, quotas, rng, fallback)
    assignment.validate(n, quotas=quotas)
    return assignment, max_flow, frozenset(matched), frozenset(pending)


# -- multi-data optimizer (Algorithm 1, pre-CSR proposal queues) ---------------


def optimize_multi_data_ref(graph, *, quotas=None, seed: int = 0):
    """The seed Algorithm-1 matcher; returns ``(assignment, local_bytes,
    reassignments, proposals)``.

    The next proposer is a seeded random draw over the deficient
    processes.
    """
    rng = np.random.default_rng(seed)
    m, n = graph.num_processes, graph.num_tasks
    if quotas is None:
        quotas = equal_quotas(n, m)

    order: dict[int, deque[int]] = {}
    for rank in range(m):
        weights = graph.edges_of_process(rank)
        ranked = sorted(range(n), key=lambda t: (-weights.get(t, 0), t))
        order[rank] = deque(ranked)

    owner: dict[int, int] = {}
    load = [0] * m
    reassignments = 0
    proposals = 0
    active = deque(rank for rank in range(m) if quotas[rank] > 0)

    while active:
        idx = int(rng.integers(len(active)))
        rank = active[idx]
        del active[idx]
        if load[rank] >= quotas[rank]:
            continue
        if not order[rank]:
            continue
        task = order[rank].popleft()
        proposals += 1
        if task not in owner:
            owner[task] = rank
            load[rank] += 1
        else:
            holder = owner[task]
            if graph.edge_weight(holder, task) < graph.edge_weight(rank, task):
                owner[task] = rank
                load[rank] += 1
                load[holder] -= 1
                reassignments += 1
                if load[holder] < quotas[holder]:
                    active.append(holder)
        if load[rank] < quotas[rank] and order[rank]:
            active.append(rank)

    assignment = Assignment.empty(m)
    for task in range(n):
        assignment.assign(owner[task], task)
    assignment.validate(n, quotas=quotas)
    local = sum(graph.edge_weight(rank, t) for t, rank in owner.items())
    return assignment, local, reassignments, proposals


# -- remote-read balancing (pre-pruning convex arcs) ---------------------------


def plan_remote_reads_ref(chunk_ids, locations):
    """The seed balancer; returns ``(server_of, load, max_load, cost)``."""
    if not chunk_ids:
        return {}, {}, 0, 0
    nodes = sorted({n for cid in chunk_ids for n in locations[cid]})
    node_index = {n: i for i, n in enumerate(nodes)}
    n_chunks, n_nodes = len(chunk_ids), len(nodes)

    s = 0
    chunk_base = 1
    node_base = 1 + n_chunks
    t = node_base + n_nodes
    net = RefMinCostFlowNetwork(t + 1)

    handles: dict[tuple[int, int], ChunkId] = {}
    for i, cid in enumerate(chunk_ids):
        net.add_edge(s, chunk_base + i, 1, 0)
        for node in locations[cid]:
            handle = net.add_edge(chunk_base + i, node_base + node_index[node], 1, 0)
            handles[handle] = cid
    for j in range(n_nodes):
        for k in range(1, n_chunks + 1):
            net.add_edge(node_base + j, t, 1, k)

    flow, cost = net.min_cost_flow(s, t)
    if flow != n_chunks:
        raise RuntimeError("remote balancing failed to route every chunk")

    server_of: dict[ChunkId, int] = {}
    for (u, idx), cid in handles.items():
        if net.flow_on((u, idx)) > 0:
            node = nodes[net.adj[u][idx].to - node_base]
            server_of[cid] = node
    load: dict[int, int] = {}
    for node in server_of.values():
        load[node] = load.get(node, 0) + 1
    return server_of, load, max(load.values(), default=0), cost
