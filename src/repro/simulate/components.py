"""Component-sliced max-min fair rate allocator.

The fluid contention model builds flow paths only from per-node disk/NIC
resources plus rack uplinks (:mod:`repro.simulate.resources`,
:mod:`repro.simulate.iomodel`), so the flow–resource bipartite graph of a
running workload decomposes into many small connected components: a local
read is a singleton component on its disk, a remote read joins exactly the
server's and the reader's resources.  Measured on the Fig-7
max-contention workload at 256 nodes the active flow set splits into ~110
components and the component touched by one event holds a *median of one
flow* (p90 ≈ 3).

Max-min water-filling is exactly separable per connected component — the
water level of one component never interacts with another's — so a flow
start/finish/cancel only needs the rates of *its own component* re-solved.
:class:`ComponentAllocator` exploits that:

* **components are maintained incrementally**: adding a flow unions the
  components of its path's resources (union-by-size absorption); removing
  a flow marks its component *shrunk*, and the possible split is handled
  by a lazy BFS re-partition of shrunk components at the next
  :meth:`solve` — classic union-find with lazy splitting;
* **only dirty components are re-solved**: :meth:`solve` re-runs
  water-filling only for the components whose flow membership changed,
  each directly by the size-tiered flat kernels of
  :mod:`repro.simulate.vectorized`.  The rates are *bit-for-bit* those of
  the reference :func:`~repro.simulate.flows.allocate_rates` run on that
  component's flows, in active-list (``flow_id``) order, in isolation
  (pinned by the differential property tests in
  ``tests/test_properties_components.py`` and
  ``tests/test_properties_vectorized.py``);
* **rates live in the caller's slot array**: flows are tracked under the
  engine's :class:`~repro.simulate.flowtable.FlowTable` slot ids, and
  ``solve(out)`` writes, and names in :attr:`last_changed`, exactly the
  re-solved slots whose rate is not bit-identical to ``out[fid]``, on
  every tier.  A new tenant's slot holds 0.0 from ``FlowTable.acquire``
  and a rate that is not positive raises, so a new flow is always
  reported.  That lets the engine's lazy-invalidation completion heap
  re-predict only those flows instead of scanning the whole slot range
  every epoch: an entry stays valid while its flow's rate holds;
* **large components are lowered once**: a component of
  ``VECTOR_MIN_FLOWS`` or more flows keeps one :class:`_Lowered` form,
  kept current by ``add``/``remove``/``_absorb``, so the numpy kernel
  only fills, and a re-partition proves the component whole by a short
  search over the form's rows (:func:`_still_whole`).

End-to-end rates can differ from one *global* reference solve in the last
ulp (the global water level interleaves freeze deltas across components,
so its float rounding differs), but per component they are exact and the
end-to-end deviation is ≤ 1e-9 relative — also pinned by the property
suite.

Purity contract: the solve path reads :class:`Resource` capacities and
``Flow`` paths and mutates only this allocator's private bookkeeping and
the rate array it is handed — never ``Cluster``/``NameNode``/``DataNode``
state (enforced interprocedurally by opass-verify rule OPS103; the module
is registered in ``repro.tools.config.DEFAULT_PURE_MODULES``).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable

import numpy as np

from .flows import Flow
from .resources import Resource
from .vectorized import (
    VECTOR_MIN_FLOWS,
    res_entry,
    solve_large,
    solve_single,
    solve_small,
)

__all__ = ["ComponentAllocator"]

#: Sort key for active-list order: ``flow_id`` order is the order in which
#: the engine adds flows, since it builds each Flow just before ``add``.
_flow_id = attrgetter("flow_id")


class ComponentAllocator:
    """Persistent per-component water-filling with O(affected component)
    re-solve.

    The engine's only allocator: ``register``/``add``/``remove``/``solve``
    over the engine's FlowTable slot ids and rate array, plus the
    component introspection the engine's lazy completion heap and the
    perf counters consume (:attr:`last_changed`, :attr:`component_count`,
    ...).
    """

    def __init__(self) -> None:
        #: resource name -> (capacity, penalty) floats for the kernels;
        #: append-only (``register`` rejects duplicates).
        self._res_caps: dict[str, tuple[float, float]] = {}
        #: active-flow count per resource (only resources with ≥ 1 flow).
        self._res_users: dict[str, int] = {}
        #: resource name -> component id (only active resources).
        self._res_comp: dict[str, int] = {}
        #: component id -> member flow -> slot id, and component id ->
        #: resources (insertion-ordered dicts — never bare sets, so
        #: iteration order is deterministic).
        self._comp_flows: dict[int, dict[Flow, int]] = {}
        self._comp_res: dict[int, dict[str, None]] = {}
        #: component id -> its lowered form, from its first numpy-tier solve
        #: until it splits, shrinks below the cutoff or absorbs a shrunk one.
        self._forms: dict[int, _Lowered] = {}
        self._comp_of: dict[Flow, int] = {}
        #: components whose membership changed since the last solve.
        self._dirty: dict[int, None] = {}
        #: dirty components that *lost* a flow — only these can have
        #: split, so only these pay the BFS re-partition at solve time.
        self._shrunk: dict[int, None] = {}
        self._next_comp = 0
        #: results of the last :meth:`solve` (instrumentation + the
        #: engine's lazy-heap feed)
        self.last_iterations = 0
        self.last_changed: list[int] = []
        self.last_component_solves = 0
        self.last_component_size_max = 0
        self.last_flows_resolved = 0
        self.last_vectorized_solves = 0

    # -- resource registration ------------------------------------------------

    def register(self, name: str, resource: "Resource | float") -> None:
        """Declare a resource (engine calls this from ``add_resource``)."""
        if name in self._res_caps:
            raise ValueError(f"duplicate resource {name!r}")
        self._res_caps[name] = res_entry(resource)

    # -- flow lifecycle -------------------------------------------------------

    def add(self, flow: Flow, fid: int) -> None:
        """Start tracking ``flow`` in slot ``fid``; raises ``KeyError`` on
        unknown resources.

        ``fid`` is the flow's FlowTable slot, the index its rate takes in
        the array :meth:`solve` writes.  Unions the components of the
        path's resources (the flow may bridge several) and marks the
        resulting component dirty.  O(|path| + size of the smaller merged
        components).
        """
        if flow in self._comp_of:
            raise ValueError("flow already tracked")
        # One pass validates the path AND collects the components it
        # touches (insertion-ordered, deduped); nothing below mutates
        # until the whole path is known-good.
        hit: dict[int, None] = {}
        res_caps = self._res_caps
        res_comp = self._res_comp
        for r in flow.path:
            if r not in res_caps:
                raise KeyError(f"flow crosses unknown resource {r!r}")
            cid_r = res_comp.get(r)
            if cid_r is not None:
                hit[cid_r] = None
        if not hit:
            cid = self._next_comp
            self._next_comp += 1
            self._comp_flows[cid] = {}
            self._comp_res[cid] = {}
        else:
            cids = list(hit)  # opass: alloc-ok -- at most |path| component ids
            comp_flows = self._comp_flows
            cid = max(cids, key=lambda c: len(comp_flows[c]))
            for other in cids:
                if other != cid:
                    self._absorb(cid, other)
        self._comp_flows[cid][flow] = fid
        self._comp_of[flow] = cid
        comp_res = self._comp_res[cid]
        res_users = self._res_users
        for r in flow.path:
            res_users[r] = res_users.get(r, 0) + 1
            res_comp[r] = cid
            comp_res[r] = None
        if self._forms:
            form = self._forms.get(cid)
            if form is not None:
                form.enter(flow, fid, res_caps)
        self._dirty[cid] = None

    def _absorb(self, target: int, other: int) -> None:
        """Merge component ``other`` into ``target`` (union by size)."""
        target_flows = self._comp_flows[target]
        other_flows = self._comp_flows.pop(other)
        comp_of = self._comp_of
        for f, fid in other_flows.items():
            target_flows[f] = fid
            comp_of[f] = target
        target_res = self._comp_res[target]
        res_comp = self._res_comp
        for r in self._comp_res.pop(other):
            target_res[r] = None
            res_comp[r] = target
        self._dirty.pop(other, None)
        # A shrunk component may already be disconnected internally; the
        # merged component inherits the pending re-partition.
        shrunk = other in self._shrunk
        if shrunk:
            del self._shrunk[other]
            self._shrunk[target] = None
        if self._forms:
            self._forms.pop(other, None)
            form = self._forms.get(target)
            if form is not None:
                if shrunk:
                    # Its probes would not cover the absorbed component's
                    # pieces: re-lower after a full re-partition.
                    del self._forms[target]
                else:
                    for f, fid in other_flows.items():
                        form.enter(f, fid, self._res_caps)

    def remove(self, flow: Flow) -> None:
        """Stop tracking ``flow`` (finished or cancelled).

        O(|path|); marks the flow's component dirty *and shrunk* — the
        component may now be disconnected, which the next :meth:`solve`
        resolves by lazy re-partition.
        """
        cid = self._comp_of.pop(flow, None)
        if cid is None:
            raise KeyError("flow is not tracked")
        members = self._comp_flows[cid]
        fid = members.pop(flow)
        comp_res = self._comp_res[cid]
        res_users = self._res_users
        res_comp = self._res_comp
        for r in flow.path:
            n = res_users[r] - 1
            if n:
                res_users[r] = n
            else:
                del res_users[r]
                del res_comp[r]
                del comp_res[r]
        if self._forms:
            form = self._forms.get(cid)
            if form is not None:
                if members:
                    form.leave(flow, fid)
                else:
                    del self._forms[cid]
        if members:
            self._dirty[cid] = None
            self._shrunk[cid] = None
        else:
            del self._comp_flows[cid]
            del self._comp_res[cid]
            self._dirty.pop(cid, None)
            self._shrunk.pop(cid, None)

    # -- introspection --------------------------------------------------------

    @property
    def component_count(self) -> int:
        """Number of tracked components (exact only after a solve —
        dirty-shrunk components may still be awaiting re-partition)."""
        return len(self._comp_flows)

    def concurrency(self, name: str) -> int:
        """Current flow count crossing ``name`` (for tests/diagnostics)."""
        return self._res_users.get(name, 0)

    def components(self) -> list[list[Flow]]:
        """The current partition, each component in active-list
        (``flow_id``) order.

        After a :meth:`solve` this is exactly the connected-component
        partition of the flow–resource graph; between a remove and the
        next solve a component may temporarily be a coarsening (the union
        of the true components it will split into).
        """
        return [
            sorted(members, key=_flow_id)
            for _, members in sorted(self._comp_flows.items())
        ]

    # -- the solver -----------------------------------------------------------

    def _repartition(self, cid: int) -> list[int]:
        """Split component ``cid`` into its true connected components.

        A component with a lowered form (:attr:`_forms`) that still has
        ``VECTOR_MIN_FLOWS`` flows is first proved whole by
        :func:`_still_whole` over the form's rows; otherwise, or if that
        search finds a split, a BFS over the member flows via shared
        resources — O(Σ|path|) of the component — partitions it.  The
        first (largest-seed-agnostic, deterministic) group keeps ``cid``;
        splinters get fresh ids.  A form survives only that proof.
        Returns the ids.
        """
        members = self._comp_flows[cid]
        if self._forms:
            form = self._forms.get(cid)
            if form is not None:
                probes = form.probes
                form.probes = {}
                if len(members) >= VECTOR_MIN_FLOWS and _still_whole(form, probes):
                    if len(form.users) > 2 * len(self._comp_res[cid]):
                        # Inert rows outnumber live ones: re-lower.
                        self._forms[cid] = _lower(members, self._res_caps)
                    return [cid]
                del self._forms[cid]
        if len(members) <= 1:
            return [cid]
        # BFS over member indices; each resource's flow list is consumed
        # on first visit, so the walk is O(Σ|path|) and never hashes a
        # Flow.  Groups come out in first-member order, each in pop order.
        flows: list[Flow] = []
        fids: list[int] = []
        res_flows: dict[str, list[int]] = {}
        for i, (f, fid) in enumerate(members.items()):
            flows.append(f)
            fids.append(fid)
            for r in f.path:
                at = res_flows.get(r)
                if at is None:
                    res_flows[r] = [i]
                else:
                    at.append(i)
        seen = [False] * len(flows)
        groups: list[list[int]] = []
        for i in range(len(flows)):
            if seen[i]:
                continue
            seen[i] = True
            group: list[int] = []
            stack = [i]
            while stack:
                j = stack.pop()
                group.append(j)
                for r in flows[j].path:
                    at = res_flows.pop(r, None)
                    if at is None:
                        continue
                    for h in at:
                        if not seen[h]:
                            seen[h] = True
                            stack.append(h)
            if len(group) == len(flows):
                return [cid]
            groups.append(group)
        out: list[int] = []
        comp_of = self._comp_of
        res_comp = self._res_comp
        for n, group in enumerate(groups):
            if n == 0:
                gid = cid
            else:
                gid = self._next_comp
                self._next_comp += 1
            g_flows: dict[Flow, int] = {}
            g_res: dict[str, None] = {}
            for j in group:
                f = flows[j]
                g_flows[f] = fids[j]
                comp_of[f] = gid
                for r in f.path:
                    g_res[r] = None
                    res_comp[r] = gid
            self._comp_flows[gid] = g_flows
            self._comp_res[gid] = g_res
            out.append(gid)
        return out

    def solve(self, out: np.ndarray) -> None:
        """Max-min fair rates into ``out``, re-solved only for the dirty
        components.

        ``out`` is the engine's slot-indexed rate array
        (``FlowTable.rate``).  Each dirty (and, if shrunk, freshly
        re-partitioned) component is solved in isolation by the flat
        kernels of :mod:`repro.simulate.vectorized`, bit-for-bit the rates
        of the reference :func:`~repro.simulate.flows.allocate_rates`.  A
        re-solved slot is written, and listed in :attr:`last_changed`,
        exactly when its rate is not bit-identical to what ``out`` holds;
        clean components' slots are not touched.  Raises ``ValueError``
        when a solved rate is not positive (or NaN): such a flow could
        never finish.
        """
        self.last_iterations = 0
        self.last_component_solves = 0
        self.last_component_size_max = 0
        self.last_flows_resolved = 0
        self.last_vectorized_solves = 0
        changed: list[int] = []
        if self._dirty:
            # The static lattice sums per-component work as if every dirty
            # component were the whole problem; the bound below counts the
            # dirty set, which is what the O(n log n) contract is about
            # (cross-checked by the solve_iterations/events growth test).
            self._solve_kernels(changed, out)  # opass: ignore[OPS302] -- amortized over the dirty set
            self._dirty.clear()
            self._shrunk.clear()
        self.last_changed = changed

    def _dirty_groups(self) -> list[int]:
        """Dirty component ids, with shrunk components re-partitioned."""
        gids: list[int] = []
        for cid in list(self._dirty):
            if cid in self._shrunk:
                gids.extend(self._repartition(cid))
            else:
                gids.append(cid)
        return gids

    def _solve_kernels(self, changed: list[int], out: np.ndarray) -> None:
        """The solve loop: one kernel run per dirty component.

        Singletons take the closed form, components below
        ``VECTOR_MIN_FLOWS`` flows the scalar kernel (members in
        ``flow_id`` order), and larger ones the numpy kernel on their kept
        lowered form (component order).  Every tier
        writes and reports only the slots whose rate differs from
        ``out``'s: an unreported slot keeps an identical rate, so the
        engine's completion-heap entry for it, which depends only on that
        rate, stays valid.
        """
        out_item = out.item
        res_caps = self._res_caps
        comp_flows = self._comp_flows
        forms = self._forms
        solves = 0
        size_max = self.last_component_size_max
        resolved = 0
        iterations = 0
        vectorized = 0
        for gid in self._dirty_groups():
            group = comp_flows[gid]
            k = len(group)
            solves += 1
            resolved += k
            if k > size_max:
                size_max = k
            if k == 1:
                (f,) = group
                fids: Iterable[int] = group.values()
                rates: Iterable[float] = [solve_single(f, res_caps)]
                iterations += 1
            elif k < VECTOR_MIN_FLOWS:
                members = sorted(group, key=_flow_id)
                fids = [group[f] for f in members]
                rates, iters = solve_small(members, res_caps)
                iterations += iters
            else:
                form = forms.get(gid)
                if form is None:
                    form = forms[gid] = _lower(group, res_caps)
                by_fid, iters = solve_large(form.paths, form.users, form.cols, form.capped)
                fids = by_fid.keys()
                rates = by_fid.values()
                iterations += iters
                vectorized += 1
            for fid, rate in zip(fids, rates):
                if not rate > 0.0:
                    raise _not_positive(group, fid, rate)
                # Exact on purpose: an unreported slot must hold the very
                # rate its completion-heap entry was predicted from.
                if rate != out_item(fid):  # opass: ignore[OPS004] -- bit-identity is the reporting rule
                    out[fid] = rate
                    changed.append(fid)
        self.last_iterations += iterations
        self.last_component_solves += solves
        self.last_component_size_max = size_max
        self.last_flows_resolved += resolved
        self.last_vectorized_solves += vectorized


def _not_positive(group: dict[Flow, int], fid: int, rate: float) -> ValueError:
    """The error for a solved rate that is not positive (or is NaN)."""
    flow = next(f for f, i in group.items() if i == fid)
    return ValueError(
        f"flow {flow.flow_id} on path {flow.path!r} solved to rate "
        f"{rate!r}; a flow needs a positive rate to finish"
    )


class _Lowered:
    """One numpy-tier component lowered for
    :func:`~repro.simulate.vectorized.solve_large`, kept current as
    members enter and leave.

    Rows are its resources in first-entry order.  A row whose members all
    left stays, inert (count 0), until a member crosses its resource again
    or the allocator re-lowers the form.
    """

    __slots__ = ("row", "cols", "users", "paths", "capped", "probes")

    def __init__(self) -> None:
        #: resource name -> local row
        self.row: dict[str, int] = {}
        #: capacity, concurrency penalty and member count per row, as
        #: columns with room to grow (the first ``len(users)`` are rows)
        self.cols = np.zeros((3, 8))
        #: per row, the slots of the members crossing it (dicts: O(1) removal)
        self.users: list[dict[int, None]] = []
        #: member slot -> its path as rows, in component order
        self.paths: dict[int, tuple[int, ...]] = {}
        #: rate cap -> the slots of the members capped at it
        self.capped: dict[float, dict[int, None]] = {}
        #: rows that a member left since the last re-partition and that
        #: still have users: every piece a split could leave holds one of
        #: them (see :func:`_still_whole`).
        self.probes: dict[int, None] = {}

    def enter(
        self, flow: Flow, fid: int, res_caps: dict[str, tuple[float, float]]
    ) -> None:
        """Add ``flow`` (slot ``fid``) as a member."""
        rows: list[int] = []
        for r in flow.path:
            i = self.row.get(r)
            if i is None:
                i = self.new_row(r, res_caps)
            self.users[i][fid] = None
            self.cols[2, i] += 1.0
            rows.append(i)
        self.paths[fid] = tuple(rows)  # opass: alloc-ok -- one row per path resource
        if flow.rate_cap is not None:
            self.capped.setdefault(flow.rate_cap, {})[fid] = None

    def new_row(self, name: str, res_caps: dict[str, tuple[float, float]]) -> int:
        """Append an empty row for resource ``name``; its index."""
        i = self.row[name] = len(self.users)
        if i == self.cols.shape[1]:
            self.cols = np.concatenate((self.cols, np.zeros_like(self.cols)), axis=1)  # opass: alloc-ok -- capacity doubling, amortized O(1)/row
        self.cols[0, i], self.cols[1, i] = res_caps[name]
        self.users.append({})
        return i

    def leave(self, flow: Flow, fid: int) -> None:
        """Drop member ``flow`` (slot ``fid``), recording probes."""
        users = self.users
        cnt = self.cols[2]
        probes = self.probes
        for i in self.paths.pop(fid):
            on = users[i]
            del on[fid]
            cnt[i] -= 1.0
            if on:
                probes[i] = None
            else:
                probes.pop(i, None)
        c = flow.rate_cap
        if c is not None:
            same = self.capped[c]
            del same[fid]
            if not same:
                del self.capped[c]


def _lower(group: dict[Flow, int], res_caps: dict[str, tuple[float, float]]) -> _Lowered:
    """A fresh lowered form of a component, members in component order."""
    form = _Lowered()
    for f, fid in group.items():
        form.enter(f, fid, res_caps)
    return form


def _still_whole(form: _Lowered, probes: dict[int, None]) -> bool:
    """Whether a component connected at its last re-partition still is.

    ``probes`` are the rows of its ``form`` that members left since then
    and that still have users.  Every piece a split leaves holds one (it
    was joined to the rest only through removed flows), so the component
    is whole exactly when they are connected.  A breadth-first search over
    the per-row member lists grows a region from every probe at once and
    merges regions where they meet (union-find), until one is left or,
    after a split, the search runs out.
    """
    if len(probes) <= 1:
        return True
    users = form.users
    paths = form.paths
    region: dict[int, int] = {}  # row -> the region that reached it
    parent: list[int] = []  # region -> the region it merged into
    frontier: list[int] = []
    for row in probes:
        region[row] = len(parent)
        parent.append(len(parent))
        frontier.append(row)
    regions = len(parent)
    seen: set[int] = set()
    while frontier:
        grown: list[int] = []
        for row in frontier:
            for fid in users[row]:
                if fid in seen:
                    continue
                seen.add(fid)
                a = region[row]
                while parent[a] != a:
                    a = parent[a]
                for r in paths[fid]:
                    b = region.get(r)
                    if b is None:
                        region[r] = a
                        grown.append(r)
                        continue
                    while parent[b] != b:
                        b = parent[b]
                    if a != b:
                        parent[b] = a
                        regions -= 1
                        if regions == 1:
                            return True
        frontier = grown
    return False
