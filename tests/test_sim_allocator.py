"""Unit tests for the engine's allocator, :class:`ComponentAllocator`.

Its bookkeeping errors, and on single-component networks *bit-for-bit*
the rates of the pure reference :func:`repro.simulate.flows.allocate_rates`
— exact ``==`` assertions throughout, no ``approx``.  The allocator runs
over a FlowTable of its own (``tests/table_allocator.py``), as it does
inside the engine.  Multi-component agreement is pinned by
``tests/test_properties_components.py``.
"""

import pytest

from repro.simulate.flows import Flow, allocate_rates, verify_allocation
from repro.simulate.resources import Resource

from tests.table_allocator import TableAllocator


def make_alloc(**capacities):
    alloc = TableAllocator()
    for name, cap in capacities.items():
        alloc.register(name, cap)
    return alloc


def reference(flows, capacities):
    return allocate_rates(flows, {k: float(v) for k, v in capacities.items()})


class TestLifecycle:
    def test_register_duplicate_rejected(self):
        alloc = make_alloc(r=10)
        with pytest.raises(ValueError, match="duplicate"):
            alloc.register("r", 5)

    def test_add_unknown_resource_rejected(self):
        alloc = make_alloc(r=10)
        with pytest.raises(KeyError, match="unknown resource"):
            alloc.add(Flow(1, ("x",)))

    def test_double_add_rejected(self):
        alloc = make_alloc(r=10)
        f = Flow(1, ("r",))
        alloc.add(f)
        with pytest.raises(ValueError, match="already tracked"):
            alloc.add(f)

    def test_remove_untracked_rejected(self):
        alloc = make_alloc(r=10)
        with pytest.raises(KeyError, match="not tracked"):
            alloc.remove(Flow(1, ("r",)))

    def test_concurrency_counts_follow_add_remove(self):
        alloc = make_alloc(a=10, b=10)
        f1, f2 = Flow(1, ("a", "b")), Flow(1, ("a",))
        alloc.add(f1)
        alloc.add(f2)
        assert alloc.concurrency("a") == 2
        assert alloc.concurrency("b") == 1
        alloc.remove(f1)
        assert alloc.concurrency("a") == 1
        assert alloc.concurrency("b") == 0
        assert alloc.active_flows == 1

    def test_empty_solve(self):
        assert make_alloc(r=10).solve() == {}


class TestExactEquivalence:
    """Mirror the reference allocator's unit cases with exact equality."""

    def test_single_flow_full_capacity(self):
        alloc = make_alloc(r=10)
        f = Flow(100, ("r",))
        alloc.add(f)
        assert alloc.solve() == reference([f], dict(r=10))
        assert alloc.solve()[f] == 10.0

    def test_equal_split(self):
        alloc = make_alloc(r=20)
        flows = [Flow(100, ("r",)) for _ in range(4)]
        for f in flows:
            alloc.add(f)
        assert alloc.solve() == reference(flows, dict(r=20))

    def test_classic_three_flow_maxmin(self):
        alloc = make_alloc(a=10, b=4)
        f1, f2, f3 = Flow(100, ("a",)), Flow(100, ("b",)), Flow(100, ("a", "b"))
        for f in (f1, f2, f3):
            alloc.add(f)
        rates = alloc.solve()
        assert rates == reference([f1, f2, f3], dict(a=10, b=4))
        assert rates[f2] == pytest.approx(2)
        assert rates[f3] == pytest.approx(2)
        assert rates[f1] == pytest.approx(8)

    def test_rate_caps(self):
        alloc = make_alloc(r=30)
        capped = Flow(100, ("r",), rate_cap=2.0)
        free1, free2 = Flow(100, ("r",)), Flow(100, ("r",))
        for f in (capped, free1, free2):
            alloc.add(f)
        rates = alloc.solve()
        assert rates == reference([capped, free1, free2], dict(r=30))
        assert rates[capped] == 2.0

    def test_concurrency_penalty_resources(self):
        res = Resource("d", 100.0, concurrency_penalty=0.5)
        alloc = TableAllocator()
        alloc.register("d", res)
        flows = [Flow(10, ("d",)) for _ in range(3)]
        for f in flows:
            alloc.add(f)
        rates = alloc.solve()
        assert rates == allocate_rates(flows, {"d": res})
        # eff = 100 / (1 + 0.5*2) = 50, split 3 ways
        assert rates[flows[0]] == pytest.approx(50 / 3)

    def test_solve_after_interleaved_add_remove(self):
        alloc = make_alloc(a=10, b=4, c=7)
        f1 = Flow(100, ("a", "b"))
        f2 = Flow(100, ("b", "c"), rate_cap=1.5)
        f3 = Flow(100, ("a",))
        f4 = Flow(100, ("c",))
        for f in (f1, f2, f3, f4):
            alloc.add(f)
        alloc.remove(f2)
        alloc.add(f2b := Flow(50, ("b", "c"), rate_cap=1.5))
        alloc.remove(f3)
        active = [f1, f4, f2b]
        rates = alloc.solve()
        assert rates == reference(active, dict(a=10, b=4, c=7))
        verify_allocation(active, {k: float(v) for k, v in dict(a=10, b=4, c=7).items()}, rates)

    def test_resolve_is_stable(self):
        """solve() twice with no changes returns identical rates."""
        alloc = make_alloc(a=10, b=4)
        flows = [Flow(100, ("a", "b")), Flow(100, ("a",), rate_cap=3.0)]
        for f in flows:
            alloc.add(f)
        assert alloc.solve() == alloc.solve()

    def test_last_iterations_reported(self):
        alloc = make_alloc(a=10, b=4)
        for f in (Flow(100, ("a",)), Flow(100, ("a", "b"))):
            alloc.add(f)
        alloc.solve()
        assert alloc.last_iterations >= 1
