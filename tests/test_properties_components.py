"""Differential property tests for :class:`ComponentAllocator`.

Three invariants, each over random interleavings of flow add/remove
(covering rate caps, concurrency penalties, multi-resource paths and
removal while resources are saturated):

1. **Partition** — after a solve, the allocator's component partition is
   exactly the connected-component partition of the flow–resource graph
   computed by brute-force union-find; between a remove and the next
   solve it may only be a *coarsening* (each true component wholly inside
   one reported component, never split across two).
2. **Per-component exactness** — the solved rate of every flow equals —
   ``==``, not ``approx`` — what the pure reference
   :func:`allocate_rates` produces when handed that flow's component *in
   isolation* (members in active-list order).  This is the invariant the
   engine's component-mode golden pins rest on.
3. **End-to-end agreement** — against one *global* reference solve of
   the whole flow set the rates agree to ≤ 1e-9 relative (the global
   water level interleaves freeze deltas across components, so its float
   rounding may differ in the last ulp — but never more).

A deterministic rack-uplink scenario exercises the merge-then-split path
the random scripts hit only occasionally: remote reads bridging two
nodes' resources through a shared rack uplink.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulate.flows import Flow, allocate_rates
from repro.simulate.resources import Resource

from tests.table_allocator import TableAllocator


@st.composite
def component_scripts(draw):
    """Resources plus an op script: (add, path, cap) / (remove, index).

    Unlike the single-pool allocator scripts, paths here are short (1–3
    resources out of up to 8) so the graph actually decomposes into
    several components that merge and split as the script runs.
    """
    num_resources = draw(st.integers(min_value=2, max_value=8))
    names = [f"r{i}" for i in range(num_resources)]
    resources = {}
    for n in names:
        cap = draw(st.floats(min_value=1.0, max_value=100.0))
        pen = draw(st.sampled_from([None, 0.0, 0.1, 0.5]))
        resources[n] = cap if pen is None else Resource(n, cap, pen)
    ops = []
    live = 0
    for _ in range(draw(st.integers(min_value=1, max_value=16))):
        if live and draw(st.booleans()):
            ops.append(("remove", draw(st.integers(min_value=0, max_value=live - 1))))
            live -= 1
        else:
            k = draw(st.integers(min_value=1, max_value=min(3, num_resources)))
            path = tuple(draw(st.permutations(names))[:k])
            cap = draw(
                st.one_of(st.none(), st.floats(min_value=0.5, max_value=50.0))
            )
            ops.append(("add", path, cap))
            live += 1
    return resources, ops


def bruteforce_partition(active):
    """Connected components of the flow–resource graph, by union-find."""
    parent = {f: f for f in active}

    def find(f):
        while parent[f] is not f:
            parent[f] = parent[parent[f]]
            f = parent[f]
        return f

    owner = {}
    for f in active:
        for r in f.path:
            if r in owner:
                parent[find(f)] = find(owner[r])
            else:
                owner[r] = f
    groups = {}
    for f in active:
        groups.setdefault(find(f), []).append(f)
    return {frozenset(g) for g in groups.values()}


def build(resources):
    alloc = TableAllocator()
    for name, res in resources.items():
        alloc.register(name, res)
    return alloc


def apply_op(alloc, active, op):
    if op[0] == "add":
        _, path, cap = op
        f = Flow(100.0, path, rate_cap=cap)
        alloc.add(f)
        active.append(f)
    else:
        alloc.remove(active.pop(op[1]))


@given(component_scripts())
@settings(max_examples=150, deadline=None)
def test_partition_matches_bruteforce(script):
    resources, ops = script
    alloc = build(resources)
    active: list[Flow] = []
    for op in ops:
        apply_op(alloc, active, op)
        # Pre-solve the partition may be a coarsening: every true
        # component must sit wholly inside one reported component.
        reported = [frozenset(c) for c in alloc.components()]
        for true_comp in bruteforce_partition(active):
            assert sum(1 for c in reported if true_comp <= c) == 1
        alloc.solve()
        # Post-solve it is exact.
        assert {frozenset(c) for c in alloc.components()} == bruteforce_partition(
            active
        )
        assert alloc.component_count == len(bruteforce_partition(active))


@given(component_scripts())
@settings(max_examples=150, deadline=None)
def test_component_rates_exact_vs_isolated_reference(script):
    resources, ops = script
    alloc = build(resources)
    active: list[Flow] = []
    for op in ops:
        apply_op(alloc, active, op)
        rates = alloc.solve()
        assert set(rates) == set(active)
        for members in alloc.components():
            # members are already in active-list order; the reference run
            # on the isolated component must agree bit for bit.
            assert {f: rates[f] for f in members} == allocate_rates(
                members, resources
            )


@given(component_scripts())
@settings(max_examples=150, deadline=None)
def test_end_to_end_close_to_global_reference(script):
    resources, ops = script
    alloc = build(resources)
    active: list[Flow] = []
    for op in ops:
        apply_op(alloc, active, op)
        rates = alloc.solve()
        reference = allocate_rates(active, resources)
        assert set(rates) == set(reference)
        for f, rate in rates.items():
            assert math.isclose(rate, reference[f], rel_tol=1e-9, abs_tol=1e-12)


@given(component_scripts())
@settings(max_examples=60, deadline=None)
def test_solve_only_at_end_matches(script):
    """Correctness must not depend on solving after every mutation —
    batched dirty/shrunk bookkeeping has to resolve to the same state."""
    resources, ops = script
    alloc = build(resources)
    active: list[Flow] = []
    for op in ops:
        apply_op(alloc, active, op)
    rates = alloc.solve()
    assert {frozenset(c) for c in alloc.components()} == bruteforce_partition(active)
    for members in alloc.components():
        assert {f: rates[f] for f in members} == allocate_rates(members, resources)


def test_rack_uplink_merge_and_split():
    """Remote reads bridge node components through the rack uplink; when
    the bridges finish, the merged component must split back apart."""
    resources = {
        "disk:0": Resource("disk:0", 40.0, 0.1),
        "nic_tx:0": 60.0,
        "disk:1": Resource("disk:1", 40.0, 0.1),
        "nic_rx:1": 60.0,
        "rack_up:0": 100.0,
        "disk:2": Resource("disk:2", 40.0, 0.1),
    }
    alloc = build(resources)
    local0 = Flow(100.0, ("disk:0",))
    local2 = Flow(100.0, ("disk:2",))
    alloc.add(local0)
    alloc.add(local2)
    alloc.solve()
    assert alloc.component_count == 2

    # A remote read from node 0's disk through the rack to node 1's NIC
    # bridges disk:0's component with fresh resources; disk:2 stays apart.
    remote = Flow(200.0, ("disk:0", "nic_tx:0", "rack_up:0", "nic_rx:1"))
    alloc.add(remote)
    rates = alloc.solve()
    assert alloc.component_count == 2
    merged = next(c for c in alloc.components() if remote in c)
    assert set(merged) == {local0, remote}
    assert {f: rates[f] for f in merged} == allocate_rates(merged, resources)

    # A second remote read into node 1 shares the uplink — still merged.
    remote2 = Flow(200.0, ("disk:1", "rack_up:0", "nic_rx:1"))
    alloc.add(remote2)
    alloc.solve()
    merged = next(c for c in alloc.components() if remote in c)
    assert set(merged) == {local0, remote, remote2}

    # Dropping the first bridge splits disk:0 from the rack/node-1 side.
    alloc.remove(remote)
    rates = alloc.solve()
    assert alloc.component_count == 3
    parts = {frozenset(c) for c in alloc.components()}
    assert parts == {
        frozenset({local0}),
        frozenset({remote2}),
        frozenset({local2}),
    }
    for members in alloc.components():
        assert {f: rates[f] for f in members} == allocate_rates(members, resources)

    # Dropping the second bridge empties the rack-side component.
    alloc.remove(remote2)
    alloc.solve()
    assert alloc.component_count == 2


def test_absorbed_shrunk_component_is_repartitioned():
    """A component that lost a flow and is then absorbed by a larger one
    before the next solve hands its pending re-partition to the merged
    component: the piece the new flow does not reach splits off."""
    resources = {n: 10.0 for n in ("r1", "r2", "r3", "r4", "s1", "s2")}
    alloc = build(resources)
    a = Flow(100.0, ("r1", "r2"))
    b = Flow(100.0, ("r2", "r3"))
    c = Flow(100.0, ("r3", "r4"))
    live = [a, b, c, *(Flow(100.0, ("s1", "s2")) for _ in range(3))]
    for f in live:
        alloc.add(f)
    alloc.solve()
    alloc.remove(b)  # {a, c} is now two pieces, awaiting re-partition
    live.remove(b)
    e = Flow(100.0, ("r1", "s1"))  # joins a's piece to the larger component
    alloc.add(e)
    live.append(e)
    rates = alloc.solve()
    assert {frozenset(p) for p in alloc.components()} == bruteforce_partition(live)
    assert [c] in alloc.components()
    for members in alloc.components():
        assert {f: rates[f] for f in members} == allocate_rates(members, resources)


def test_rate_capped_flows_freeze_exactly():
    """Capped flows must come out at exactly their cap when unconstrained
    — the stable sort by cap inside a component matches the reference."""
    resources = {"d": Resource("d", 100.0, 0.0)}
    alloc = build(resources)
    capped = [Flow(100.0, ("d",), rate_cap=c) for c in (5.0, 10.0, 5.0)]
    uncapped = Flow(100.0, ("d",))
    for f in capped:
        alloc.add(f)
    alloc.add(uncapped)
    rates = alloc.solve()
    for f in capped:
        assert rates[f] == f.rate_cap
    assert rates == allocate_rates(capped + [uncapped], resources)


def test_changed_slot_reporting_is_component_scoped():
    """solve() must write and report only the dirty components' slots —
    the lazy heap's correctness depends on the changed list covering
    every rate that moved."""
    resources = {"a": 10.0, "b": 10.0}
    alloc = build(resources)
    out = alloc.table.rate
    fa = Flow(100.0, ("a",))
    fb = Flow(100.0, ("b",))
    ia = alloc.add(fa)
    ib = alloc.add(fb)
    alloc.solve()
    assert sorted(alloc.last_changed) == [ia, ib]
    assert out[ia] == 10.0 and out[ib] == 10.0

    # A second flow on "a" dirties only a's component.
    fa2 = Flow(100.0, ("a",))
    ia2 = alloc.add(fa2)
    out[ib] = -1.0  # sentinel: b's slot must not be rewritten
    alloc.solve()
    assert sorted(alloc.last_changed) == sorted([ia, ia2])
    assert out[ib] == -1.0
    assert out[ia] == out[ia2] == 5.0
    assert alloc.last_component_solves == 1
    assert alloc.last_component_size_max == 2

    # Nothing dirty: no work, nothing reported.
    alloc.solve()
    assert alloc.last_changed == []
    assert alloc.last_component_solves == 0


def _check_reports_only_rerated_slots(n):
    """A component of ``n + 2`` flows writes and reports only its new
    flows and the flows whose rate changed; every other slot keeps what
    it held, which the engine's completion heap relies on.  The rule is
    the same on every tier; only the numpy tier counts as vectorized."""
    import numpy as np

    from repro.simulate.vectorized import VECTOR_MIN_FLOWS

    vectorized = int(n + 2 >= VECTOR_MIN_FLOWS)
    # Each flow is bound by its own disk (small integer capacities, so
    # every water level is exact); the hub joins them into one component
    # without binding anyone.  "s" is shared by fx and fy only, and
    # binds both.
    resources = {
        "hub": 1000.0, "s": 4.0, "dy": 8.0, "dz": 3.0, "dw": 5.0,
        **{f"d{i}": float(i % 8 + 1) for i in range(n)},
    }
    alloc = build(resources)
    out = alloc.table.rate  # the table never outgrows its first arrays here
    flows = [Flow(100.0, ("hub", f"d{i}")) for i in range(n)]
    fx = Flow(100.0, ("hub", "s"))
    fy = Flow(100.0, ("hub", "s", "dy"))
    slots = {f: alloc.add(f) for f in [*flows, fx, fy]}
    alloc.solve()
    assert alloc.last_vectorized_solves == vectorized
    assert sorted(alloc.last_changed) == sorted(slots.values())
    before = allocate_rates(list(slots), resources)
    assert all(out[slot] == before[f] for f, slot in slots.items())

    # Flow 0's resources bind nobody else: the component is re-solved,
    # but no rate moves, so nothing is reported or written.
    alloc.remove(flows[0])
    del slots[flows[0]]
    held = out.copy()
    alloc.solve()
    assert alloc.last_component_solves == 1
    assert alloc.last_vectorized_solves == vectorized
    assert alloc.last_changed == []
    assert (out == held).all()

    # fx leaves "s" to fy (re-rated), fz is new in fx's recycled slot;
    # nothing else moves.
    alloc.remove(fx)
    fz = Flow(100.0, ("hub", "dz"))
    slots[fz] = alloc.add(fz)
    assert slots[fz] == slots.pop(fx)
    held = out.copy()
    alloc.solve()
    assert alloc.last_vectorized_solves == vectorized
    changed = sorted(alloc.last_changed)
    assert changed == sorted([slots[fy], slots[fz]])
    assert np.flatnonzero(out != held).tolist() == changed
    after = allocate_rates(list(slots), resources)
    assert after[fy] != before[fy]
    for f, slot in slots.items():
        if slot in changed:
            assert out[slot] == after[f]
        else:
            assert after[f] == before[f]
    assert alloc.solve() == after

    # Recycled slots: a new tenant is reported even when its rate equals
    # the old tenant's, and is lowered from its own path.
    fu = Flow(100.0, ("hub", "d1"))  # same path and rate as flows[1]
    fw = Flow(100.0, ("hub", "dw"))  # flows[2] ran at 3.0 on d2
    for old, new in ((flows[1], fu), (flows[2], fw)):
        alloc.remove(old)
        slots[new] = alloc.add(new)
        assert slots[new] == slots.pop(old)
    alloc.solve()
    assert sorted(alloc.last_changed) == [1, 2]
    assert out[1] == 2.0 and out[2] == 5.0

    # A resource registered late rebuilds the id table; the ids cached
    # for the other slots stay valid.
    resources["late"] = 7.0
    alloc.register("late", 7.0)
    fl = Flow(100.0, ("hub", "late"))
    slots[fl] = alloc.add(fl)
    rates = alloc.solve()
    assert alloc.last_vectorized_solves == vectorized
    assert rates == allocate_rates(list(slots), resources)
    assert rates[fl] == 7.0


def test_large_component_reports_only_rerated_slots():
    """The changed-slot rule on the numpy tier (40 + 2 flows)."""
    _check_reports_only_rerated_slots(40)


def test_small_component_reports_only_rerated_slots():
    """The same rule on the scalar tier (8 + 2 flows)."""
    _check_reports_only_rerated_slots(8)
