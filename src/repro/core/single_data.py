"""Flow-based optimization of parallel single-data access (paper §IV-B).

Encodes the equal-share assignment problem as a flow network (Figure 5):

* source ``s`` → each process ``p_i`` with capacity = the process's quota;
* ``p_i`` → file ``f_j`` iff some of ``f_j`` is on ``p_i``'s node, with
  capacity = the file size (the co-located bytes);
* each file ``f_j`` → sink ``t`` with capacity = the file size.

A maximum s–t flow then yields the assignment with the maximum amount of
local reads; the Ford–Fulkerson family's flow-augmenting paths provide the
paper's cancellation/reassignment behaviour for free.  Because the maximum
matching "may be not a full matching" when data is unevenly distributed,
unmatched tasks are then distributed to below-quota processes (the paper
assigns them randomly; a least-loaded fallback is also provided).

Two capacity encodings are supported:

* ``"unit"`` — capacities counted in tasks (quota edges = task counts, file
  edges = 1).  Exact for the paper's benchmark where every chunk file has
  equal size; integral max-flow is a direct assignment.
* ``"bytes"`` — capacities in bytes, the paper's literal formulation
  (TotalSize/m per process).  With unequal file sizes the optimal flow may
  split a file across processes; the extraction step rounds each file to the
  process carrying the most of its flow, so locality is maximal up to
  rounding while quotas stay within one file size of the target.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .assignment import Assignment, equal_quotas
from .bipartite import LocalityGraph
from .flownetwork import FlowNetwork
from .perf import SchedPerf, wall_clock

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class SingleDataResult:
    """Outcome of the flow-based optimizer."""

    assignment: Assignment
    max_flow: int
    full_matching: bool
    matched_tasks: frozenset[int]
    fallback_tasks: frozenset[int]


def _build_unit_network(
    graph: LocalityGraph, quotas: list[int]
) -> tuple[FlowNetwork, list[tuple[int, int, tuple[int, int]]]]:
    m, n = graph.num_processes, graph.num_tasks
    # Vertex ids: 0 = s, 1..m = processes, m+1..m+n = tasks, m+n+1 = t.
    net = FlowNetwork(m + n + 2)
    s, t = 0, m + n + 1
    csr = graph.csr
    ptr, row_task = csr.proc_ptr, csr.proc_task
    edges: list[tuple[int, int, int]] = [
        (s, 1 + rank, quotas[rank]) for rank in range(m)
    ]
    meta: list[tuple[int, int]] = []
    for rank in range(m):
        base = 1 + rank
        for j in range(ptr[rank], ptr[rank + 1]):
            task_id = row_task[j]
            meta.append((rank, task_id))
            edges.append((base, 1 + m + task_id, 1))
    edges.extend((1 + m + task_id, t, 1) for task_id in range(n))
    edge_handles = net.add_edges(edges)
    handles = [
        (rank, task_id, edge_handles[m + i])
        for i, (rank, task_id) in enumerate(meta)
    ]
    return net, handles


def _build_byte_network(
    graph: LocalityGraph, quotas_bytes: list[int]
) -> tuple[FlowNetwork, list[tuple[int, int, tuple[int, int]]]]:
    m, n = graph.num_processes, graph.num_tasks
    net = FlowNetwork(m + n + 2)
    s, t = 0, m + n + 1
    csr = graph.csr
    ptr, row_task, row_weight = csr.proc_ptr, csr.proc_task, csr.proc_weight
    edges: list[tuple[int, int, int]] = [
        (s, 1 + rank, quotas_bytes[rank]) for rank in range(m)
    ]
    meta: list[tuple[int, int]] = []
    for rank in range(m):
        base = 1 + rank
        for j in range(ptr[rank], ptr[rank + 1]):
            task_id = row_task[j]
            meta.append((rank, task_id))
            edges.append((base, 1 + m + task_id, row_weight[j]))
    edges.extend(
        (1 + m + task_id, t, graph.task_bytes(task_id)) for task_id in range(n)
    )
    edge_handles = net.add_edges(edges)
    handles = [
        (rank, task_id, edge_handles[m + i])
        for i, (rank, task_id) in enumerate(meta)
    ]
    return net, handles


def _fallback_distribute(
    assignment: Assignment,
    unmatched: list[int],
    quotas: list[int],
    rng: np.random.Generator,
    policy: str,
) -> None:
    """Give unmatched tasks to below-quota processes.

    ``"random"`` is the paper's choice ("we randomly assign unmatched tasks
    to each such process until all processes are matched"); ``"least_loaded"``
    picks the emptiest process first.
    """
    if not unmatched:
        return
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
        elif policy == "least_loaded":
            rank = min(open_ranks, key=lambda r: (len(assignment.tasks_of.get(r, [])), r))
        else:
            raise ValueError(f"unknown fallback policy {policy!r}")
        assignment.assign(rank, task_id)
        deficits[rank] -= 1
        if deficits[rank] == 0:
            # Order-preserving removal is required: the "random" policy
            # indexes open_ranks with rng draws, so a swap-pop would
            # change which rank each subsequent draw selects.  The list
            # is at most num_processes long and each rank leaves once.
            open_ranks.remove(rank)  # opass: ignore[OPS005] -- cold planner path; O(m) removal, each rank removed at most once, order must be stable for seeded rng reproducibility


def optimize_single_data(
    graph: LocalityGraph,
    *,
    quotas: list[int] | None = None,
    capacity_mode: str = "unit",
    algorithm: str = "dinic",
    fallback: str = "random",
    seed: int | np.random.Generator = 0,
    perf: SchedPerf | None = None,
) -> SingleDataResult:
    """Compute the Opass assignment for single-data (equal-share) access.

    Parameters
    ----------
    graph:
        The §IV-A locality graph.
    quotas:
        Tasks per process; defaults to the equal split (n/m with remainder
        over the low ranks).  Their sum must be ≥ the task count.
    capacity_mode:
        ``"unit"`` (task-count capacities) or ``"bytes"`` (the paper's
        TotalSize/m byte capacities).
    algorithm:
        Max-flow solver: ``"dinic"`` or ``"edmonds_karp"``.
    fallback:
        Distribution policy for tasks the maximum matching left unassigned:
        ``"random"`` (paper) or ``"least_loaded"``.
    """
    m, n = graph.num_processes, graph.num_tasks
    if quotas is None:
        quotas = equal_quotas(n, m)
    if len(quotas) != m:
        raise ValueError("quota list length != process count")
    if any(q < 0 for q in quotas):
        raise ValueError("quotas must be non-negative")
    if sum(quotas) < n:
        raise ValueError(f"total quota {sum(quotas)} < {n} tasks")
    if fallback not in ("random", "least_loaded"):
        raise ValueError(f"unknown fallback policy {fallback!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    if capacity_mode not in ("unit", "bytes"):
        raise ValueError(f"unknown capacity_mode {capacity_mode!r}")
    # The graph is immutable and the solvers are deterministic, so the
    # flows are a pure function of (graph, mode, quotas, algorithm): each
    # graph keeps them per key, and a repeat call skips build and solve.
    memo_key = ("single_data", capacity_mode, tuple(quotas), algorithm)
    memo = graph.scratch.get(memo_key)
    if memo is None:
        if capacity_mode == "unit":
            net, handles = _build_unit_network(graph, quotas)
        else:
            # Byte quota proportional to the task quota; for the common
            # equal case this is ceil(TotalSize/m) per process, the
            # paper's TotalSize/m.
            total_bytes = graph.total_bytes()
            quota_sum = sum(quotas)
            quotas_bytes = [-(-total_bytes * q // quota_sum) for q in quotas]
            net, handles = _build_byte_network(graph, quotas_bytes)
        t0 = wall_clock() if perf is not None else 0.0
        max_flow = net.max_flow(0, m + n + 1, algorithm=algorithm, perf=perf)
        if perf is not None:
            perf.solve_wall += wall_clock() - t0
        # Keep the carrying edges only, in handle order, and drop the net.
        flows = np.array(net.flows_on([h for _, _, h in handles]), np.int64)
        ranks = np.fromiter((r for r, _, _ in handles), np.int64, len(handles))
        tasks = np.fromiter((t for _, t, _ in handles), np.int64, len(handles))
        pos = flows > 0
        memo = (max_flow, ranks[pos], tasks[pos], flows[pos])
        graph.scratch[memo_key] = memo
    elif perf is not None:
        perf.solve_replays += 1
    if perf is not None:
        perf.solves += 1
    max_flow, c_ranks, c_tasks, c_flows = memo  # type: ignore[misc]

    # Extract the integral assignment: a task is matched to the process
    # carrying (the most of) its flow.
    assignment = Assignment.empty(m)
    matched: set[int] = set()
    pending: list[int] = []
    if capacity_mode == "unit":
        # Unit mode: every task→sink edge has capacity 1, so integral flow
        # puts at most one unit on at most one carrier per task — which
        # makes the whole extraction a scatter: owner[task] = carrier
        # rank (no colliding indices), grouped per rank by a stable sort
        # that preserves ascending task order, exactly the order the
        # scalar range(n) loop appends in.
        owner = np.full(n, -1, np.int64)
        owner[c_tasks] = c_ranks
        matched_np = np.flatnonzero(owner >= 0)
        pending = np.flatnonzero(owner < 0).tolist()
        owners = owner[matched_np]
        counts = np.bincount(owners, minlength=m)
        grouped = matched_np[np.argsort(owners, kind="stable")]
        tasks_of = assignment.tasks_of
        start = 0
        for rank in range(m):
            c = int(counts[rank])
            if c:
                tasks_of[rank] = grouped[start : start + c].tolist()
                start += c
        matched = set(matched_np.tolist())
    else:
        flow_to: dict[int, list[tuple[int, int]]] = {}
        for rank, task_id, f in zip(
            c_ranks.tolist(), c_tasks.tolist(), c_flows.tolist()
        ):
            flow_to.setdefault(task_id, []).append((f, rank))
        for task_id in range(n):
            carriers = flow_to.get(task_id)
            if not carriers:
                pending.append(task_id)
                continue
            carriers.sort(reverse=True)  # most flow first; ties to high rank — break by rank next
            best_flow = carriers[0][0]
            best_rank = min(r for f, r in carriers if f == best_flow)
            if best_flow * 2 >= graph.task_bytes(task_id):
                assignment.assign(best_rank, task_id)
                matched.add(task_id)
            else:
                pending.append(task_id)

    # Rounding in bytes mode can push a process over its task quota; demote
    # its least-local tasks back to the pending pool.
    for rank in range(m):
        ts = assignment.tasks_of.get(rank, [])
        while len(ts) > quotas[rank]:
            # One enumerate scan finds the argmin so the demoted task is
            # deleted by index instead of a second O(n) remove() search.
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

    if capacity_mode == "unit":
        full = max_flow == n
    else:
        full = max_flow == graph.total_bytes()
    logger.info(
        "single-data matching: %d tasks over %d processes, max_flow=%d, "
        "matched=%d, fallback=%d, full=%s",
        n, m, max_flow, len(matched), len(pending), full,
    )
    return SingleDataResult(
        assignment=assignment,
        max_flow=max_flow,
        full_matching=full,
        matched_tasks=frozenset(matched),
        fallback_tasks=frozenset(pending),
    )
