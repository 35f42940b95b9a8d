"""Tests for max-min fair rate allocation."""

import pytest

from repro.simulate.flows import Flow, allocate_rates, verify_allocation
from repro.simulate.resources import Resource


def caps(**kw):
    return {k: float(v) for k, v in kw.items()}


class TestSingleResource:
    def test_single_flow_gets_full_capacity(self):
        f = Flow(100, ("r",))
        rates = allocate_rates([f], caps(r=10))
        assert rates[f] == pytest.approx(10)

    def test_equal_split(self):
        flows = [Flow(100, ("r",)) for _ in range(4)]
        rates = allocate_rates(flows, caps(r=20))
        assert all(rates[f] == pytest.approx(5) for f in flows)

    def test_empty(self):
        assert allocate_rates([], caps(r=10)) == {}

    def test_unknown_resource_rejected(self):
        with pytest.raises(KeyError):
            allocate_rates([Flow(1, ("x",))], caps(r=10))


class TestMultiResource:
    def test_bottleneck_chain(self):
        """A flow through two resources is limited by the tighter one."""
        f = Flow(100, ("a", "b"))
        rates = allocate_rates([f], caps(a=10, b=4))
        assert rates[f] == pytest.approx(4)

    def test_classic_three_flow_maxmin(self):
        """Textbook case: links A(cap 10) and B(cap 4); f1 on A, f2 on B,
        f3 on both.  Max-min: f3 and f2 get 2 each on B; f1 gets 8 on A."""
        f1 = Flow(100, ("a",))
        f2 = Flow(100, ("b",))
        f3 = Flow(100, ("a", "b"))
        rates = allocate_rates([f1, f2, f3], caps(a=10, b=4))
        assert rates[f2] == pytest.approx(2)
        assert rates[f3] == pytest.approx(2)
        assert rates[f1] == pytest.approx(8)

    def test_verify_allocation_passes(self):
        f1 = Flow(100, ("a",))
        f2 = Flow(100, ("a", "b"))
        resources = caps(a=10, b=4)
        rates = allocate_rates([f1, f2], resources)
        verify_allocation([f1, f2], resources, rates)

    def test_verify_detects_overload(self):
        f = Flow(100, ("a",))
        with pytest.raises(AssertionError, match="over capacity"):
            verify_allocation([f], caps(a=1), {f: 5.0})

    def test_verify_detects_non_maxmin(self):
        f = Flow(100, ("a",))
        with pytest.raises(AssertionError, match="no saturated"):
            verify_allocation([f], caps(a=10), {f: 1.0})


class TestRateCaps:
    def test_cap_limits_single_flow(self):
        f = Flow(100, ("r",), rate_cap=3)
        rates = allocate_rates([f], caps(r=10))
        assert rates[f] == pytest.approx(3)

    def test_uncapped_flow_absorbs_released_capacity(self):
        capped = Flow(100, ("r",), rate_cap=2)
        free = Flow(100, ("r",))
        rates = allocate_rates([capped, free], caps(r=10))
        assert rates[capped] == pytest.approx(2)
        assert rates[free] == pytest.approx(8)

    def test_cap_above_fair_share_is_inactive(self):
        f1 = Flow(100, ("r",), rate_cap=50)
        f2 = Flow(100, ("r",))
        rates = allocate_rates([f1, f2], caps(r=10))
        assert rates[f1] == pytest.approx(5)
        assert rates[f2] == pytest.approx(5)

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            Flow(1, ("r",), rate_cap=0)

    def test_verify_accepts_capped_flow(self):
        f = Flow(100, ("r",), rate_cap=2)
        resources = caps(r=10)
        rates = allocate_rates([f], resources)
        verify_allocation([f], resources, rates)


class TestConcurrencyPenalty:
    def test_single_flow_no_penalty(self):
        r = {"d": Resource("d", 10, concurrency_penalty=0.5)}
        f = Flow(100, ("d",))
        assert allocate_rates([f], r)[f] == pytest.approx(10)

    def test_two_flows_degraded(self):
        r = {"d": Resource("d", 12, concurrency_penalty=0.5)}
        flows = [Flow(100, ("d",)) for _ in range(2)]
        rates = allocate_rates(flows, r)
        # Effective capacity 12/1.5 = 8, shared equally: 4 each.
        assert all(rates[f] == pytest.approx(4) for f in flows)

    def test_effective_capacity_formula(self):
        r = Resource("d", 100, concurrency_penalty=0.25)
        assert r.effective_capacity(1) == 100
        assert r.effective_capacity(2) == pytest.approx(80)
        assert r.effective_capacity(5) == pytest.approx(50)

    def test_zero_penalty_resource(self):
        r = Resource("n", 100)
        assert r.effective_capacity(10) == 100


class TestFlowValidation:
    def test_nonpositive_size(self):
        with pytest.raises(ValueError):
            Flow(0, ("r",))

    def test_nan_size(self):
        with pytest.raises(ValueError, match="finite"):
            Flow(float("nan"), ("r",))

    def test_infinite_size(self):
        with pytest.raises(ValueError, match="finite"):
            Flow(float("inf"), ("r",))

    def test_nan_rate_cap(self):
        with pytest.raises(ValueError, match="rate_cap"):
            Flow(1, ("r",), rate_cap=float("nan"))

    def test_empty_path(self):
        with pytest.raises(ValueError):
            Flow(1, ())

    def test_duplicate_path(self):
        with pytest.raises(ValueError):
            Flow(1, ("r", "r"))

    def test_remaining_initialised(self):
        f = Flow(42, ("r",))
        assert f.remaining == 42.0

    def test_flows_hashable_and_distinct(self):
        f1 = Flow(1, ("r",))
        f2 = Flow(1, ("r",))
        assert f1 != f2
        assert len({f1, f2}) == 2
