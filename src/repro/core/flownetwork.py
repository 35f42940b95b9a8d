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

On graphs with at least :data:`VECTOR_MIN_VERTICES` vertices, Dinic's
level BFS runs as a frontier-synchronous numpy kernel over a lazily
built CSR mirror of the adjacency.  BFS levels are exact shortest
distances, independent of queue order, so the kernel's levels — and
therefore every downstream DFS decision — match the scalar FIFO BFS
exactly.
"""

from __future__ import annotations

import operator
from collections import deque

import numpy as np

from .perf import SchedPerf

#: Vertex count at and above which Dinic's level BFS runs on the numpy
#: frontier kernel.  Below it the Python BFS wins (the arrays' fixed
#: setup cost outweighs the per-edge savings on small graphs).
VECTOR_MIN_VERTICES = 512


def _sorted_unique(vs: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D int64 array, as ``np.unique``.

    ``np.unique`` checks for masked input through ``numpy.ma`` and so
    imports it (about 12 ms) on its first call, inside the first large
    solve; a sort and a neighbour mask give the same array without it.
    """
    out = np.sort(vs)
    keep = np.empty(out.size, np.bool_)
    keep[:1] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


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
        "_virgin",
        "_virgin_levels",
        "_virgin_solves",
        "_csr_ptr",
        "_csr_eids",
        "_to_np",
        "_orig_np",
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
        # True while every residual capacity equals its original value; the
        # first BFS of a solve on a virgin network is a pure function of
        # the topology, so its levels are memoised per (source, sink).
        self._virgin = True
        self._virgin_levels: dict[tuple[int, int], list[int]] = {}
        # Full solve memo: the solvers are deterministic, so a solve that
        # starts from the virgin state always ends with the same residual
        # capacities and flow value.  max_flow() records that end state per
        # (source, sink, algorithm) and replays it on repeat solves after a
        # reset() — bit-identical to re-running the solver.
        self._virgin_solves: dict[tuple[int, int, str], tuple[list[int], int]] = {}
        # CSR mirror of the adjacency (built lazily, invalidated by edge
        # adds) for the numpy frontier BFS on large graphs.
        self._csr_ptr: "np.ndarray | None" = None
        self._csr_eids: "np.ndarray | None" = None
        self._to_np: "np.ndarray | None" = None
        # Original capacities as numpy (rebuilt when edge adds grow _orig).
        self._orig_np: "np.ndarray | None" = None

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
        self._virgin_levels.clear()
        self._virgin_solves.clear()
        self._csr_ptr = None
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
        self._virgin_levels.clear()
        self._virgin_solves.clear()
        self._csr_ptr = None
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

    def edge_ids(self, handles: list[tuple[int, int]]) -> "np.ndarray":
        """Resolve handles to internal edge ids (for bulk numpy queries).

        Edge ids are stable for the life of the network, so callers that
        query the same handles every solve resolve them once and reuse
        the array with :meth:`flows_on_eids`.
        """
        adj = self._adj
        return np.fromiter(
            (adj[u][idx] for u, idx in handles), np.int64, len(handles)
        )

    def flows_on_eids(self, eids: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`flows_on` over pre-resolved edge ids."""
        orig = self._orig_np
        if orig is None or len(orig) != len(self._orig):
            orig = self._orig_np = np.array(self._orig, dtype=np.int64)
        cap = np.array(self._cap, dtype=np.int64)
        return orig[eids] - cap[eids]

    def flow_probe(self, handles: list[tuple[int, int]]):
        """Build a reusable bulk-flow query for a fixed handle set.

        Returns a zero-argument callable producing the same int64 array
        as :meth:`flows_on_eids` over these handles' edge ids, but with
        the handle resolution, original capacities, and residual-list
        selector all precomputed — the per-call work is one C-speed
        gather of the residuals.  Valid until edges are added (the
        residual list object itself is never rebound, only mutated).
        """
        eids = self.edge_ids(handles)
        if len(eids) == 0:
            empty = np.zeros(0, np.int64)
            return lambda: empty.copy()
        orig_sel = np.array([self._orig[e] for e in eids], dtype=np.int64)
        cap = self._cap
        if len(eids) == 1:
            e = int(eids[0])
            return lambda: orig_sel - cap[e]
        getter = operator.itemgetter(*eids.tolist())
        return lambda: orig_sel - np.array(getter(cap), dtype=np.int64)

    def reset(self) -> None:
        """Zero all flow (restore residual capacities)."""
        self._cap[:] = self._orig
        self._virgin = True

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
            self._virgin = False
            if perf is not None:
                perf.augmentations += 1

    # -- Dinic ---------------------------------------------------------------

    def _ensure_csr(self) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """CSR mirror of the adjacency for the numpy BFS (built lazily).

        ``ptr``/``eids`` are the standard row-pointer/flat-edge-id pair;
        ``to_np`` mirrors ``_to``.  All three are topology-only (residual
        capacities are re-read each BFS), so the mirror stays valid until
        the next edge add.
        """
        ptr = self._csr_ptr
        if ptr is not None:
            return ptr, self._csr_eids, self._to_np
        adj = self._adj
        counts = np.fromiter((len(row) for row in adj), np.int64, len(adj))
        ptr = np.empty(len(adj) + 1, np.int64)
        ptr[0] = 0
        np.cumsum(counts, out=ptr[1:])
        eids = np.fromiter(
            (e for row in adj for e in row), np.int64, int(ptr[-1])
        )
        to_np = np.fromiter(self._to, np.int64, len(self._to))
        self._csr_ptr, self._csr_eids, self._to_np = ptr, eids, to_np
        return ptr, eids, to_np

    def _bfs_levels_vec(
        self, source: int, sink: int, level: list[int]
    ) -> list[int] | None:
        """Frontier-synchronous numpy BFS; levels identical to the FIFO BFS.

        BFS levels are exact shortest-path distances in the admissible
        (positive-residual) graph, and shortest distances do not depend on
        the order vertices leave the queue — so expanding the whole
        frontier at once assigns every vertex the same level the scalar
        FIFO loop would.
        """
        ptr, eids, to_np = self._ensure_csr()
        cap = np.fromiter(self._cap, np.int64, len(self._cap))
        lvl = np.full(self.num_vertices, -1, np.int64)
        lvl[source] = 0
        frontier = np.array([source], np.int64)
        depth = 0
        while frontier.size:
            depth += 1
            starts = ptr[frontier]
            counts = ptr[frontier + 1] - starts
            total = int(counts.sum())  # opass: reassoc-ok -- int64 sum, exact
            if total == 0:
                break
            # Gather every out-edge of the frontier in one shot: for each
            # frontier vertex f, the slots [offsets, offsets+counts) of
            # ``idx`` walk eids[starts[f] : starts[f]+counts[f]].
            ends = np.cumsum(counts)
            offsets = np.repeat(ends - counts, counts)
            idx = np.arange(total, dtype=np.int64) - offsets
            idx += np.repeat(starts, counts)
            es = eids[idx]
            es = es[cap[es] > 0]
            vs = to_np[es]
            vs = vs[lvl[vs] < 0]
            if vs.size == 0:
                break
            fresh = _sorted_unique(vs)
            lvl[fresh] = depth
            frontier = fresh
        level[:] = lvl.tolist()
        return level if level[sink] >= 0 else None

    def _bfs_levels(self, source: int, sink: int) -> list[int] | None:
        n = self.num_vertices
        level = self._level
        if len(level) != n:
            level = self._level = [-1] * n
        if n >= VECTOR_MIN_VERTICES:
            return self._bfs_levels_vec(source, sink, level)
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

    def _first_phase_levels(self, source: int, sink: int) -> list[int] | None:
        """Levels for a solve's first BFS, memoised while the network is
        virgin (all residual capacities at their original values): they
        are a pure function of the topology, so repeated reset()+solve
        cycles on a reused network skip the pass entirely."""
        if not self._virgin:
            return self._bfs_levels(source, sink)
        memo = self._virgin_levels
        key = (source, sink)
        if key in memo:
            return memo[key]
        level = self._bfs_levels(source, sink)
        memo[key] = None if level is None else level.copy()
        return memo[key]

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
            # The first phase's BFS sees the virgin capacities, so its
            # levels come from the per-(source, sink) memo; once flow is
            # pushed _virgin drops and later phases BFS normally.
            level = self._first_phase_levels(source, sink)
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
                self._virgin = False
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
        """Dispatch to a solver by name ('dinic' or 'edmonds_karp').

        Solves from the virgin state (fresh network, or reused after
        :meth:`reset`) are memoised: the solvers are deterministic, so the
        first virgin solve's final residual capacities and flow value are
        recorded per (source, sink, algorithm) and replayed on repeats —
        the residual state and every per-handle flow come out bit-for-bit
        identical to re-running the solver.
        """
        if algorithm not in ("dinic", "edmonds_karp"):
            raise ValueError(f"unknown max-flow algorithm {algorithm!r}")
        virgin_at_start = self._virgin
        if virgin_at_start:
            memo = self._virgin_solves.get((source, sink, algorithm))
            if memo is not None:
                caps, flow = memo
                self._cap[:] = caps
                self._virgin = flow == 0
                if perf is not None:
                    perf.solve_replays += 1
                return flow
        if algorithm == "dinic":
            flow = self.dinic(source, sink, perf=perf)
        else:
            flow = self.edmonds_karp(source, sink, perf=perf)
        if virgin_at_start:
            self._virgin_solves[(source, sink, algorithm)] = (
                self._cap.copy(),
                flow,
            )
        return flow

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


_INF = 1 << 62
