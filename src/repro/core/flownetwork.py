"""Max-flow solvers (Ford–Fulkerson family), implemented from scratch.

The paper "employ[s] the standard max-flow algorithm, Ford-Fulkerson, to
compute the largest flow from s to t", relying on the cancellation property
of flow-augmenting paths.  We provide two implementations over the same
adjacency structure:

* :func:`edmonds_karp` — BFS-augmenting Ford–Fulkerson, O(V·E²): the
  textbook algorithm the paper cites;
* :func:`dinic` — level-graph blocking flows, O(V²·E) generally and
  O(E·√V) on unit-capacity bipartite networks: the production choice.

Capacities are integers, so the integral-flow theorem guarantees integral
optimal flows — which is what makes flow-based task assignment well defined.
``networkx`` is used only in the test suite as an independent oracle.

Storage is array-backed (PR 5): edges live in flat parallel lists
``_to``/``_cap``/``_orig`` with the usual xor-pairing (edge ``e`` and its
reverse ``e ^ 1``), and per-vertex adjacency holds plain edge ids.  Dinic
runs iteratively with the current-arc optimisation over reusable
level/iterator scratch buffers, replaying the recursive reference
implementation decision-for-decision (same edge scan order, same
iterator-advance rule on dead ends, same restart-from-source after every
augmentation) so augmenting paths — and therefore flows on every handle —
are bit-for-bit unchanged.  ``adj`` remains available as a read-only view
for tests and debugging.

Every solve runs its solver from the current residual state: each Dinic
phase builds its level graph with one FIFO BFS, and :meth:`max_flow`
only dispatches by algorithm name.  Callers that re-solve an unchanged
network keep the result themselves (``single_data`` memoises per graph).
"""

from __future__ import annotations

from collections import deque

from .perf import SchedPerf


class _EdgeView:
    """Read-only view of one directed edge (for ``adj`` compatibility)."""

    __slots__ = ("_net", "_eid")

    def __init__(self, net: "FlowNetwork", eid: int) -> None:
        self._net = net
        self._eid = eid

    @property
    def to(self) -> int:
        return self._net._to[self._eid]

    @property
    def cap(self) -> int:
        return self._net._cap[self._eid]

    @property
    def original_cap(self) -> int:
        return self._net._orig[self._eid]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"_EdgeView(to={self.to}, cap={self.cap}, "
            f"original_cap={self.original_cap})"
        )


class FlowNetwork:
    """A directed graph with integer capacities and residual bookkeeping."""

    __slots__ = (
        "num_vertices",
        "_to",
        "_cap",
        "_orig",
        "_adj",
        "_level",
        "_it",
    )

    def __init__(self, num_vertices: int) -> None:
        if num_vertices <= 0:
            raise ValueError("num_vertices must be positive")
        self.num_vertices = num_vertices
        self._to: list[int] = []
        self._cap: list[int] = []
        self._orig: list[int] = []
        self._adj: list[list[int]] = [[] for _ in range(num_vertices)]
        # Scratch buffers reused across solves (allocated once per network).
        self._level: list[int] = []
        self._it: list[int] = []

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise ValueError(f"vertex {v} out of range [0, {self.num_vertices})")

    def add_edge(self, u: int, v: int, capacity: int) -> tuple[int, int]:
        """Add edge u→v; returns ``(u, index)`` handle for flow queries."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError("self-loops are not allowed")
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if not isinstance(capacity, int):
            raise TypeError("capacities must be integers (integral-flow theorem)")
        eid = len(self._to)
        self._to.append(v)
        self._cap.append(capacity)
        self._orig.append(capacity)
        self._to.append(u)
        self._cap.append(0)
        self._orig.append(0)
        self._adj[u].append(eid)
        self._adj[v].append(eid + 1)
        return (u, len(self._adj[u]) - 1)

    def add_edges(
        self, edges: list[tuple[int, int, int]]
    ) -> list[tuple[int, int]]:
        """Bulk-append trusted ``(u, v, capacity)`` edges.

        Semantically identical to calling :meth:`add_edge` per element —
        same edge ids, same handles, in input order — but the per-edge
        validation is elided, so callers must pass in-range vertices and
        non-negative integer capacities (the network builders do, straight
        from a validated CSR).
        """
        to, cap, orig, adj = self._to, self._cap, self._orig, self._adj
        handles: list[tuple[int, int]] = []
        append_handle = handles.append
        eid = len(to)
        for u, v, capacity in edges:
            row = adj[u]
            append_handle((u, len(row)))
            row.append(eid)
            to.append(v)
            cap.append(capacity)
            orig.append(capacity)
            adj[v].append(eid + 1)
            to.append(u)
            cap.append(0)
            orig.append(0)
            eid += 2
        return handles

    @property
    def adj(self) -> list[list[_EdgeView]]:
        """Per-vertex edge views (read-only; for tests and debugging)."""
        return [[_EdgeView(self, eid) for eid in row] for row in self._adj]

    def _edge_id(self, handle: tuple[int, int]) -> int:
        u, idx = handle
        return self._adj[u][idx]

    def edge_to(self, handle: tuple[int, int]) -> int:
        """Head vertex of the edge identified by ``handle``."""
        return self._to[self._edge_id(handle)]

    def flow_on(self, handle: tuple[int, int]) -> int:
        """Flow currently routed through the edge identified by ``handle``."""
        eid = self._edge_id(handle)
        return self._orig[eid] - self._cap[eid]

    def flows_on(self, handles: list[tuple[int, int]]) -> list[int]:
        """Per-handle flows, in order (bulk :meth:`flow_on`)."""
        adj, cap, orig = self._adj, self._cap, self._orig
        out = []
        append = out.append
        for u, idx in handles:
            eid = adj[u][idx]
            append(orig[eid] - cap[eid])
        return out

    def reset(self) -> None:
        """Zero all flow (restore residual capacities)."""
        self._cap[:] = self._orig

    # -- Edmonds–Karp ---------------------------------------------------------

    def edmonds_karp(
        self, source: int, sink: int, *, perf: SchedPerf | None = None
    ) -> int:
        """Max flow via shortest augmenting paths (BFS)."""
        self._check_vertex(source)
        self._check_vertex(sink)
        if source == sink:
            raise ValueError("source and sink must differ")
        adj, to, cap = self._adj, self._to, self._cap
        flow = 0
        while True:
            # parent[v] = edge id used to reach v (-1 unseen, -2 the source).
            parent = [-1] * self.num_vertices
            parent[source] = -2
            queue = deque([source])
            while queue and parent[sink] == -1:
                u = queue.popleft()
                for eid in adj[u]:
                    v = to[eid]
                    if cap[eid] > 0 and parent[v] == -1:
                        parent[v] = eid
                        queue.append(v)
            if parent[sink] == -1:
                return flow
            # Find bottleneck along the path.
            bottleneck = None
            v = sink
            while v != source:
                eid = parent[v]
                c = cap[eid]
                bottleneck = c if bottleneck is None else min(bottleneck, c)
                v = to[eid ^ 1]
            assert bottleneck is not None and bottleneck > 0
            # Augment (this is the paper's cancellation mechanism: pushing on
            # a reverse edge cancels a previous assignment).
            v = sink
            while v != source:
                eid = parent[v]
                cap[eid] -= bottleneck
                cap[eid ^ 1] += bottleneck
                v = to[eid ^ 1]
            flow += bottleneck
            if perf is not None:
                perf.augmentations += 1

    # -- Dinic ---------------------------------------------------------------

    def _bfs_levels(self, source: int, sink: int) -> list[int] | None:
        n = self.num_vertices
        level = self._level
        if len(level) != n:
            level = self._level = [-1] * n
        # Slice-assignment resets at C speed (vs a Python loop).
        level[:] = [-1] * n
        level[source] = 0
        adj, to, cap = self._adj, self._to, self._cap
        queue = deque([source])
        pop = queue.popleft
        push = queue.append
        while queue:
            u = pop()
            lu = level[u] + 1
            for eid in adj[u]:
                v = to[eid]
                if cap[eid] > 0 and level[v] < 0:
                    level[v] = lu
                    push(v)
        return level if level[sink] >= 0 else None

    def dinic(
        self, source: int, sink: int, *, perf: SchedPerf | None = None
    ) -> int:
        """Max flow via Dinic's level-graph blocking flows (iterative).

        Replays the recursive formulation exactly: a persistent per-vertex
        current-arc iterator, advanced when an edge is inadmissible or its
        subtree is exhausted, left untouched on the vertices of a found
        path; after every augmentation the search restarts from the source
        with the iterators intact.
        """
        self._check_vertex(source)
        self._check_vertex(sink)
        if source == sink:
            raise ValueError("source and sink must differ")
        adj, to, cap = self._adj, self._to, self._cap
        it = self._it
        if len(it) != self.num_vertices:
            it = self._it = [0] * self.num_vertices
        flow = 0
        phases = 0
        augmentations = 0
        while True:
            level = self._bfs_levels(source, sink)
            phases += 1
            if level is None:
                if perf is not None:
                    perf.bfs_phases += phases
                    perf.augmentations += augmentations
                return flow
            it[:] = [0] * self.num_vertices
            stack = [source]
            while stack:
                u = stack[-1]
                row = adj[u]
                deg = len(row)
                iu = it[u]
                target = level[u] + 1
                while iu < deg:
                    eid = row[iu]
                    if cap[eid] > 0 and level[to[eid]] == target:
                        break
                    iu += 1
                it[u] = iu
                if iu == deg:
                    # Subtree exhausted: back out and advance the parent's
                    # current arc (the recursive child returning 0).
                    stack.pop()
                    if stack:
                        it[stack[-1]] += 1
                    continue
                v = to[row[iu]]
                if v != sink:
                    stack.append(v)
                    continue
                # Augmenting path found: its edges are adj[w][it[w]], one per
                # stacked vertex, in path order (the last is row[iu]).
                path_eids = [adj[w][it[w]] for w in stack]
                bottleneck = min(cap[e] for e in path_eids)
                for e in path_eids:
                    cap[e] -= bottleneck
                    cap[e ^ 1] += bottleneck
                flow += bottleneck
                augmentations += 1
                # Restart from the source with iterators intact, exactly as
                # the recursion unwinds after a positive push.
                stack = [source]

    def max_flow(
        self,
        source: int,
        sink: int,
        *,
        algorithm: str = "dinic",
        perf: SchedPerf | None = None,
    ) -> int:
        """Dispatch to a solver by name ('dinic' or 'edmonds_karp')."""
        if algorithm == "dinic":
            return self.dinic(source, sink, perf=perf)
        if algorithm == "edmonds_karp":
            return self.edmonds_karp(source, sink, perf=perf)
        raise ValueError(f"unknown max-flow algorithm {algorithm!r}")

    # -- Min cut ----------------------------------------------------------------

    def min_cut_reachable(self, source: int) -> set[int]:
        """Vertices reachable from ``source`` in the residual graph.

        Valid after a max-flow computation; the (reachable, unreachable)
        partition is a minimum s-t cut.
        """
        self._check_vertex(source)
        adj, to, cap = self._adj, self._to, self._cap
        seen = {source}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for eid in adj[u]:
                v = to[eid]
                if cap[eid] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen
