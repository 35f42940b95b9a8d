"""Opass for dynamic parallel data access (paper §IV-D).

For irregular workloads (mpiBLAST-style master/worker), Opass precomputes a
matching-based assignment ``A*`` and uses it as a *guideline*:

1. before execution the scheduler computes per-worker task lists ``L_i``
   from the matching;
2. an idle worker ``i`` with non-empty ``L_i`` receives the next task from
   its own list;
3. an idle worker with an empty list *steals*: from the longest remaining
   list ``L_k``, take the task with the largest co-located data size with
   worker ``i``.

Step 3 preserves load balance in heterogeneous settings while losing as
little locality as possible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .assignment import Assignment
from .bipartite import LocalityGraph


@dataclass
class DynamicPlan:
    """Mutable runtime state of the §IV-D scheduler policy."""

    graph: LocalityGraph
    lists: dict[int, deque[int]]  # L_i, ordered; consumed from the front
    steals: int = 0
    dispatched: int = 0
    _dispatched_local_bytes: int = field(default=0, repr=False)

    @property
    def remaining(self) -> int:
        return sum(len(v) for v in self.lists.values())

    def next_task(self, rank: int) -> int | None:
        """The task the master should hand to idle worker ``rank``.

        Returns ``None`` when every list is empty (analysis finished).
        """
        if rank not in self.lists:
            raise KeyError(f"no plan for rank {rank}")
        own = self.lists[rank]
        if own:
            task = own.popleft()
        else:
            # Steal from the longest remaining list: pick the task there
            # with the largest co-located bytes with this worker.  One
            # enumerate scan finds the argmax so the victim is deleted by
            # index instead of a second O(n) remove() search.
            donors = [r for r, lst in self.lists.items() if lst]
            if not donors:
                return None
            longest = max(donors, key=lambda r: (len(self.lists[r]), -r))
            pool = self.lists[longest]
            best, task = max(
                enumerate(pool),
                key=lambda it: (self.graph.edge_weight(rank, it[1]), -it[1]),
            )
            del pool[best]
            self.steals += 1
        self.dispatched += 1
        self._dispatched_local_bytes += self.graph.edge_weight(rank, task)
        return task

    @property
    def dispatched_local_bytes(self) -> int:
        """Co-located bytes across all (worker, task) dispatches so far."""
        return self._dispatched_local_bytes


def plan_dynamic(
    graph: LocalityGraph,
    assignment: Assignment,
    *,
    order: str = "locality",
) -> DynamicPlan:
    """Build the guided lists ``L_i`` from a matching-based assignment.

    ``order`` controls within-list ordering: ``"locality"`` serves the most
    co-located tasks first (so late steals give away the least local work),
    ``"as_assigned"`` keeps the assignment's order.
    """
    if order not in ("locality", "as_assigned"):
        raise ValueError(f"unknown order {order!r}")
    lists: dict[int, deque[int]] = {}
    for rank in range(graph.num_processes):
        tasks = list(assignment.tasks_of.get(rank, []))
        if order == "locality":
            tasks.sort(key=lambda t: (-graph.edge_weight(rank, t), t))
        lists[rank] = deque(tasks)
    return DynamicPlan(graph=graph, lists=lists)
