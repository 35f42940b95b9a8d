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
* **per-component rates are cached**: :meth:`solve` re-runs water-filling
  only for the dirty components (those whose flow membership changed),
  each by the size-tiered flat kernels of
  :mod:`repro.simulate.vectorized` (or, with ``kernel="reference"``, by
  the reference :func:`~repro.simulate.flows.allocate_rates` on the
  component's flows in active-list order).  Either way the rates are
  *bit-for-bit* those of the reference allocator run on that component in
  isolation (pinned by the differential property tests in
  ``tests/test_properties_components.py`` and
  ``tests/test_properties_vectorized.py``);
* **changed flows are reported**: :attr:`last_changed` names the slot ids
  whose rate was re-solved, which is what lets the engine's
  lazy-invalidation completion heap re-predict only those flows instead
  of scanning the whole slot range every epoch.

End-to-end rates can differ from one *global* reference solve in the last
ulp (the global water level interleaves freeze deltas across components,
so its float rounding differs), but per component they are exact and the
end-to-end deviation is ≤ 1e-9 relative — also pinned by the property
suite.

Purity contract: the solve path reads :class:`Resource` capacities and
``Flow`` paths and mutates only this allocator's private bookkeeping —
never ``Cluster``/``NameNode``/``DataNode`` state (enforced
interprocedurally by opass-verify rule OPS103; the module is registered in
``repro.tools.config.DEFAULT_PURE_MODULES``).
"""

from __future__ import annotations

import math

import numpy as np

from .cascade import SolveMemo, component_key, pair_key
from .flows import Flow, allocate_rates
from .resources import Resource
from .vectorized import (
    VECTOR_MIN_FLOWS,
    id_table,
    res_entry,
    solve_large,
    solve_pair,
    solve_single,
    solve_small,
)

__all__ = ["ComponentAllocator"]


class ComponentAllocator:
    """Persistent per-component water-filling with O(affected component)
    re-solve.

    API-compatible with
    :class:`~repro.simulate.allocator.IncrementalAllocator`
    (``register``/``add``/``remove``/``solve``), plus the component
    introspection the engine's lazy completion heap and the perf counters
    consume (:attr:`last_changed`, :attr:`component_count`, ...).
    """

    def __init__(self, *, kernel: str = "auto") -> None:
        """
        Parameters
        ----------
        kernel:
            ``"auto"`` (default) dispatches each dirty component to the
            flat kernels in :mod:`repro.simulate.vectorized` — closed
            form for singletons, fused pair and small scalar kernels
            below :data:`~repro.simulate.vectorized.VECTOR_MIN_FLOWS`
            flows, numpy on integer resource ids at and above it;
            ``"reference"`` hands every component
            to :func:`~repro.simulate.flows.allocate_rates` instead
            (differential CI).
        """
        if kernel not in ("auto", "reference"):
            raise ValueError(f"unknown kernel {kernel!r}")
        self._kernel = kernel
        #: canonical-shape memo over solved components of 2 to
        #: ``VECTOR_MIN_FLOWS - 1`` flows (see :mod:`repro.simulate.cascade`);
        #: sound because ``register`` never updates an existing capacity
        #: entry.  Larger components never repeat a shape on the measured
        #: workloads, so they skip the key and the memo.
        self._memo = SolveMemo()
        #: path tuple -> min capacity along the path (singleton closed
        #: form before the rate cap) — same append-only soundness.
        self._single_caps: dict[tuple[str, ...], float] = {}
        #: resource name -> Resource (or plain float capacity); the dict
        #: handed verbatim to the reference allocator.
        self._resources: dict[str, Resource | float] = {}
        #: resource name -> (capacity, penalty) floats for the kernels.
        self._res_caps: dict[str, tuple[float, float]] = {}
        #: the numpy kernel's id table over ``_res_caps`` (see
        #: :func:`~repro.simulate.vectorized.id_table`), built by the first
        #: large solve after a ``register``; runs that never form a large
        #: component never build it.
        self._ids: tuple[dict[str, int], np.ndarray, np.ndarray] | None = None
        #: active-flow count per resource (only resources with ≥ 1 flow).
        self._res_users: dict[str, int] = {}
        #: resource name -> component id (only active resources).
        self._res_comp: dict[str, int] = {}
        #: component id -> member flows / resources (insertion-ordered
        #: dicts — never bare sets, so iteration order is deterministic).
        self._comp_flows: dict[int, dict[Flow, None]] = {}
        self._comp_res: dict[int, dict[str, None]] = {}
        self._comp_of: dict[Flow, int] = {}
        #: components whose membership changed since the last solve.
        self._dirty: dict[int, None] = {}
        #: dirty components that *lost* a flow — only these can have
        #: split, so only these pay the BFS re-partition at solve time.
        self._shrunk: dict[int, None] = {}
        self._next_comp = 0
        # flow ids (engine slot ids when supplied, internal otherwise)
        self._id_of: dict[Flow, int] = {}
        self._free_ids: list[int] = []
        self._next_fid = 0
        self._external_ids = False
        #: global insertion order — the reference allocator's active-list
        #: order, which fixes the stable sort of rate-capped flows.
        self._order: dict[Flow, int] = {}
        self._next_order = 0
        #: cached solved rate per flow (valid for clean components).
        self._rate_of: dict[Flow, float] = {}
        #: results of the last :meth:`solve` (instrumentation + the
        #: engine's lazy-heap feed)
        self.last_iterations = 0
        self.last_changed: list[int] = []
        self.last_component_solves = 0
        self.last_component_size_max = 0
        self.last_flows_resolved = 0
        self.last_vectorized_solves = 0
        self.last_memo_hits = 0

    # -- resource registration ------------------------------------------------

    def register(self, name: str, resource: "Resource | float") -> None:
        """Declare a resource (engine calls this from ``add_resource``)."""
        if name in self._resources:
            raise ValueError(f"duplicate resource {name!r}")
        self._resources[name] = resource
        self._res_caps[name] = res_entry(resource)
        self._ids = None

    def has_resource(self, name: str) -> bool:
        return name in self._resources

    # -- flow lifecycle -------------------------------------------------------

    def add(self, flow: Flow, fid: int | None = None) -> int:
        """Start tracking ``flow``; raises ``KeyError`` on unknown resources.

        Unions the components of the path's resources (the flow may bridge
        several) and marks the resulting component dirty.  O(|path| +
        size of the smaller merged components).  The caller may supply the
        slot id (the engine shares its ids so ``solve(out=...)`` writes
        rates straight into the engine's array).
        """
        if flow in self._id_of:
            raise ValueError("flow already tracked")
        # One pass validates the path AND collects the components it
        # touches (insertion-ordered, deduped); nothing below mutates
        # until the whole path is known-good.
        hit: dict[int, None] = {}
        resources = self._resources
        res_comp = self._res_comp
        for r in flow.path:
            if r not in resources:
                raise KeyError(f"flow crosses unknown resource {r!r}")
            cid_r = res_comp.get(r)
            if cid_r is not None:
                hit[cid_r] = None
        if fid is not None:
            self._external_ids = True
        elif self._free_ids:
            fid = self._free_ids.pop()
        else:
            fid = self._next_fid
            self._next_fid += 1
        self._id_of[flow] = fid
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
        self._comp_flows[cid][flow] = None
        self._comp_of[flow] = cid
        comp_res = self._comp_res[cid]
        res_users = self._res_users
        for r in flow.path:
            res_users[r] = res_users.get(r, 0) + 1
            res_comp[r] = cid
            comp_res[r] = None
        self._dirty[cid] = None
        self._order[flow] = self._next_order
        self._next_order += 1
        return fid

    def _absorb(self, target: int, other: int) -> None:
        """Merge component ``other`` into ``target`` (union by size)."""
        target_flows = self._comp_flows[target]
        comp_of = self._comp_of
        for f in self._comp_flows.pop(other):
            target_flows[f] = None
            comp_of[f] = target
        target_res = self._comp_res[target]
        res_comp = self._res_comp
        for r in self._comp_res.pop(other):
            target_res[r] = None
            res_comp[r] = target
        self._dirty.pop(other, None)
        # A shrunk component may already be disconnected internally; the
        # merged component inherits the pending re-partition.
        if self._shrunk.pop(other, None) is not None:
            self._shrunk[target] = None

    def remove(self, flow: Flow) -> None:
        """Stop tracking ``flow`` (finished or cancelled).

        O(|path|); marks the flow's component dirty *and shrunk* — the
        component may now be disconnected, which the next :meth:`solve`
        resolves by lazy re-partition.
        """
        fid = self._id_of.pop(flow, None)
        if fid is None:
            raise KeyError("flow is not tracked")
        if not self._external_ids:
            self._free_ids.append(fid)
        cid = self._comp_of.pop(flow)
        del self._comp_flows[cid][flow]
        del self._order[flow]
        self._rate_of.pop(flow, None)
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
        if self._comp_flows[cid]:
            self._dirty[cid] = None
            self._shrunk[cid] = None
        else:
            del self._comp_flows[cid]
            del self._comp_res[cid]
            self._dirty.pop(cid, None)
            self._shrunk.pop(cid, None)

    # -- introspection --------------------------------------------------------

    @property
    def active_flows(self) -> int:
        return len(self._id_of)

    @property
    def component_count(self) -> int:
        """Number of tracked components (exact only after a solve —
        dirty-shrunk components may still be awaiting re-partition)."""
        return len(self._comp_flows)

    def concurrency(self, name: str) -> int:
        """Current flow count crossing ``name`` (for tests/diagnostics)."""
        return self._res_users.get(name, 0)

    def components(self) -> list[list[Flow]]:
        """The current partition, each component in active-list order.

        After a :meth:`solve` this is exactly the connected-component
        partition of the flow–resource graph; between a remove and the
        next solve a component may temporarily be a coarsening (the union
        of the true components it will split into).
        """
        order = self._order
        return [
            sorted(members, key=order.__getitem__)
            for _, members in sorted(self._comp_flows.items())
        ]

    # -- the solver -----------------------------------------------------------

    def _repartition(self, cid: int) -> list[int]:
        """Split component ``cid`` into its true connected components.

        BFS over the member flows via shared resources — O(Σ|path|) of the
        component.  The first (largest-seed-agnostic, deterministic)
        group keeps ``cid``; splinters get fresh ids.  Returns the ids.
        """
        members = self._comp_flows[cid]
        if len(members) <= 1:
            return [cid]
        if len(members) == 2:
            # The dominant shrink case after a remove: either the two
            # survivors still share a resource (no split) or they are two
            # singletons — decidable by one path intersection, no BFS.
            f0, f1 = members
            path1 = f1.path
            for r in f0.path:
                if r in path1:
                    return [cid]
            gid = self._next_comp
            self._next_comp += 1
            del self._comp_flows[cid][f1]
            self._comp_flows[gid] = {f1: None}
            self._comp_of[f1] = gid
            g_res: dict[str, None] = {}
            comp_res = self._comp_res[cid]
            res_comp = self._res_comp
            for r in path1:
                del comp_res[r]
                g_res[r] = None
                res_comp[r] = gid
            self._comp_res[gid] = g_res
            return [cid, gid]
        # BFS over member indices; each resource's flow list is consumed
        # on first visit, so the walk is O(Σ|path|) and never hashes a
        # Flow.  Groups come out in first-member order, each in pop order.
        flows: list[Flow] = []
        res_flows: dict[str, list[int]] = {}
        for i, f in enumerate(members):
            flows.append(f)
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
            g_flows: dict[Flow, None] = {}
            g_res: dict[str, None] = {}
            for j in group:
                f = flows[j]
                g_flows[f] = None
                comp_of[f] = gid
                for r in f.path:
                    g_res[r] = None
                    res_comp[r] = gid
            self._comp_flows[gid] = g_flows
            self._comp_res[gid] = g_res
            out.append(gid)
        return out

    def solve(self, out: "np.ndarray | None" = None) -> dict[Flow, float] | None:
        """Max-min fair rates, re-solved only for the dirty components.

        Each dirty (and, if shrunk, freshly re-partitioned) component is
        solved in isolation — by the flat kernels of
        :mod:`repro.simulate.vectorized` (``kernel="auto"``) or by the
        reference :func:`allocate_rates` (``kernel="reference"``); either way the
        rates are bit-for-bit the reference's.  Clean components keep
        their cached rates untouched.  With ``out`` (the engine's
        slot-indexed rate array) only the re-solved flows' slots are
        written and ``None`` is returned; :attr:`last_changed` then
        lists exactly those slot ids.  Without ``out`` a Flow-keyed dict
        of *all* tracked flows is returned (the reference-compatible API
        the property tests consume).
        """
        self.last_iterations = 0
        self.last_component_solves = 0
        self.last_component_size_max = 0
        self.last_flows_resolved = 0
        self.last_vectorized_solves = 0
        self.last_memo_hits = 0
        changed: list[int] = []
        if self._dirty:
            # The static lattice sums per-component work as if every dirty
            # component were the whole problem; the bound below counts the
            # dirty set, which is what the O(n log n) contract is about
            # (cross-checked dynamically by the OPS304 solve_iterations echo).
            if self._kernel == "reference":
                self._solve_reference(changed, out)  # opass: ignore[OPS302] -- amortized over the dirty set
            else:
                self._solve_kernels(changed, out)  # opass: ignore[OPS302] -- amortized over the dirty set
            self._dirty.clear()
            self._shrunk.clear()
        self.last_changed = changed
        if out is not None:
            return None
        return {f: self._rate_of[f] for f in self._id_of}

    def _dirty_groups(self) -> list[int]:
        """Dirty component ids, with shrunk components re-partitioned."""
        gids: list[int] = []
        for cid in list(self._dirty):
            if cid in self._shrunk:
                gids.extend(self._repartition(cid))
            else:
                gids.append(cid)
        return gids

    def _solve_reference(
        self, changed: list[int], out: "np.ndarray | None"
    ) -> None:
        """The pre-kernel solve loop: reference allocator per component."""
        order = self._order
        id_of = self._id_of
        rate_of = self._rate_of
        resources = self._resources
        stats: dict[str, int] = {}
        for gid in self._dirty_groups():
            members = sorted(self._comp_flows[gid], key=order.__getitem__)
            rates = allocate_rates(members, resources, stats=stats)
            self.last_iterations += stats["iterations"]
            self.last_component_solves += 1
            k = len(members)
            if k > self.last_component_size_max:
                self.last_component_size_max = k
            self.last_flows_resolved += k
            if out is None:
                for f in members:
                    rate_of[f] = rates[f]
                    changed.append(id_of[f])
            else:
                for f in members:
                    rate = rates[f]
                    rate_of[f] = rate
                    fid = id_of[f]
                    out[fid] = rate
                    changed.append(fid)

    def _solve_single_cached(self, f: Flow) -> float:
        """Singleton closed form through the path-keyed capacity memo.

        ``min(capacity along path)`` is order-independent float ``min``,
        so caching it per path tuple and applying the rate cap after is
        bit-identical to :func:`solve_single` — and the capacity table
        is append-only, so the cached minimum can never go stale.
        """
        path = f.path
        rate = self._single_caps.get(path)
        if rate is None:
            res_caps = self._res_caps
            rate = math.inf
            for r in path:
                cap = res_caps[r][0]
                if cap < rate:
                    rate = cap
            self._single_caps[path] = rate
        rc = f.rate_cap
        if rc is not None and rc < rate:
            return rc
        return rate

    def _solve_kernels(
        self, changed: list[int], out: "np.ndarray | None"
    ) -> None:
        """Flat-kernel solve loop.

        Components of 2 to ``VECTOR_MIN_FLOWS - 1`` flows go through the
        canonical-shape memo first (:mod:`repro.simulate.cascade`): a hit
        replays the cached rates (and the iteration count, so
        ``solve_iterations`` keeps measuring the represented water-filling
        work); a miss runs the pair or small kernel and stores the
        result.  Larger components go straight to the numpy kernel on the
        persistent integer resource ids: on ``ingest-write``, the one
        measured workload that forms them, every one of their lookups
        missed, and their keys were the memo's bulk.
        """
        order = self._order
        id_of = self._id_of
        rate_of = self._rate_of
        res_caps = self._res_caps
        comp_flows = self._comp_flows
        memo = self._memo
        solves = 0
        size_max = self.last_component_size_max
        resolved = 0
        iterations = 0
        vectorized = 0
        memo_hits = 0
        for gid in self._dirty_groups():
            group = comp_flows[gid]
            k = len(group)
            solves += 1
            resolved += k
            if k > size_max:
                size_max = k
            if k == 1:
                f = next(iter(group))
                rate = self._solve_single_cached(f)
                iterations += 1
                rate_of[f] = rate
                fid = id_of[f]
                if out is not None:
                    out[fid] = rate
                changed.append(fid)
                continue
            if k >= VECTOR_MIN_FLOWS:
                members = sorted(group, key=order.__getitem__)
                if self._ids is None:
                    self._ids = id_table(res_caps)
                rates, iters = solve_large(members, *self._ids)
                vectorized += 1
            else:
                if k == 2:
                    fa, fb = group
                    if order[fa] > order[fb]:
                        fa, fb = fb, fa
                    members = (fa, fb)
                    key = pair_key(fa, fb, res_caps)
                else:
                    members = sorted(group, key=order.__getitem__)
                    key = component_key(members, res_caps)
                hit = memo.lookup(key)
                if hit is not None:
                    rates, iters = hit
                    memo_hits += 1
                else:
                    if k == 2:
                        rates, iters = solve_pair(fa, fb, res_caps)
                    else:
                        rates, iters = solve_small(members, res_caps)
                    memo.store(key, rates, iters)
            iterations += iters
            if out is None:
                for f, rate in zip(members, rates):
                    rate_of[f] = rate
                    changed.append(id_of[f])
            else:
                for f, rate in zip(members, rates):
                    rate_of[f] = rate
                    fid = id_of[f]
                    out[fid] = rate
                    changed.append(fid)
        self.last_iterations += iterations
        self.last_component_solves += solves
        self.last_component_size_max = size_max
        self.last_flows_resolved += resolved
        self.last_vectorized_solves += vectorized
        self.last_memo_hits += memo_hits
