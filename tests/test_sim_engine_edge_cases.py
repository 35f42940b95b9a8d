"""Edge-case tests for the simulation engine's numerics and ordering."""

import pytest

from repro.simulate import Resource, Simulation
from tests.reference_sim import ReferenceSimulation


@pytest.fixture
def sim():
    s = Simulation()
    s.add_resource(Resource("r", 10.0))
    return s


class TestSimultaneity:
    def test_equal_flows_finish_together(self, sim):
        ends = []
        for _ in range(3):
            sim.start_flow(30, ["r"], lambda f: ends.append(sim.now))
        sim.run()
        assert len(ends) == 3
        assert max(ends) - min(ends) < 1e-6

    def test_timer_and_completion_at_same_instant(self, sim):
        order = []
        sim.start_flow(10, ["r"], lambda f: order.append("flow"))
        sim.schedule(1.0, lambda: order.append("timer"))
        sim.run()
        # Flow completes exactly at t=1.0 too; both fire, flow first
        # (completions are processed before an equal-time timer).
        assert set(order) == {"flow", "timer"}
        assert sim.now == pytest.approx(1.0)

    def test_many_staggered_flows_conserve_time(self, sim):
        """Flows arriving every 0.5 s; total service = total work / rate."""
        ends = []
        for i in range(5):
            sim.schedule(
                0.5 * i,
                lambda: sim.start_flow(10, ["r"], lambda f: ends.append(sim.now)),
            )
        sim.run()
        assert len(ends) == 5
        # Work conservation: the server is busy from 0 to completion of all
        # 50 units => last completion at >= 50/10 = 5.0 s.
        assert max(ends) == pytest.approx(5.0, abs=1e-6)


class TestTinyFlows:
    def test_very_small_flow_completes(self, sim):
        ends = []
        sim.start_flow(1e-9, ["r"], lambda f: ends.append(sim.now))
        sim.run()
        assert len(ends) == 1
        assert ends[0] < 1e-6

    def test_huge_and_tiny_flows_coexist(self, sim):
        ends = {}
        sim.start_flow(1e9, ["r"], lambda f: ends.__setitem__("huge", sim.now))
        sim.start_flow(1.0, ["r"], lambda f: ends.__setitem__("tiny", sim.now))
        sim.run()
        assert ends["tiny"] < 1.0
        assert ends["huge"] == pytest.approx((1e9 + 1) / 10.0, rel=1e-6)


class TestDueBoundRetire:
    @pytest.mark.parametrize("factory", [Simulation, ReferenceSimulation])
    def test_timer_retires_flow_drained_within_eps(self, factory):
        """A flow left within ``REMAINING_EPS`` of done by a timer retires
        at the timer's instant.  Its predicted finish (10.0000005) lies
        outside the tie window of the timer at 10.0, so the flow never
        joins the tie group: only its due pessimistic bound (9.0000005)
        names it to the sweep."""
        sim = factory()
        sim.add_resource(Resource("r", 1.0))
        ends = []
        sim.start_flow(10.0 + 5e-7, ["r"], lambda f: ends.append(sim.now))
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert ends == [10.0]


class TestCallbackEffects:
    def test_callback_starting_flow_on_same_resource(self, sim):
        ends = []

        def chain(_f):
            if len(ends) < 3:
                ends.append(sim.now)
                sim.start_flow(10, ["r"], chain)

        sim.start_flow(10, ["r"], chain)
        sim.run()
        assert ends == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]

    def test_callback_scheduling_timer(self, sim):
        events = []
        sim.start_flow(
            10, ["r"],
            lambda f: sim.schedule(2.0, lambda: events.append(sim.now)),
        )
        sim.run()
        assert events == [pytest.approx(3.0)]

    def test_exception_in_callback_propagates(self, sim):
        def boom(_f):
            raise RuntimeError("callback exploded")

        sim.start_flow(1, ["r"], boom)
        with pytest.raises(RuntimeError, match="exploded"):
            sim.run()


class TestRateDynamics:
    def test_rate_changes_tracked_piecewise(self, sim):
        """One flow alone (10/s), joined by another (5/s each), then alone
        again — exact piecewise-linear accounting."""
        ends = {}
        sim.start_flow(15, ["r"], lambda f: ends.__setitem__("a", sim.now))
        sim.schedule(
            1.0, lambda: sim.start_flow(5, ["r"], lambda f: ends.__setitem__("b", sim.now))
        )
        sim.run()
        # a: 10 units by t=1, then 5/s. b: 5/s from t=1, needs 1 s -> both
        # race; b finishes 5 units at t=2; a has 15-10-5=0 at t=2 as well.
        assert ends["b"] == pytest.approx(2.0)
        assert ends["a"] == pytest.approx(2.0)

    def test_capped_flow_releases_headroom_over_time(self, sim):
        ends = {}
        sim.start_flow(4, ["r"], lambda f: ends.__setitem__("capped", sim.now),
                       rate_cap=2.0)
        sim.start_flow(16, ["r"], lambda f: ends.__setitem__("free", sim.now))
        sim.run()
        # capped: 2/s -> done at 2.0.  free: 8/s for 2 s (16 moved) -> also 2.0.
        assert ends["capped"] == pytest.approx(2.0)
        assert ends["free"] == pytest.approx(2.0)

    def test_rate_that_underflows_to_zero_fails_loudly(self):
        """A resource whose shared capacity underflows to 0.0 can never
        finish its flows; the solve says so instead of dividing by zero
        or leaving them silently unfinished."""
        sim = Simulation()
        sim.add_resource(Resource("r", 1e-300, concurrency_penalty=1e300))
        for _ in range(2):
            sim.start_flow(1.0, ["r"], lambda f: None)
        with pytest.raises(ValueError, match=r"path \('r',\) solved to rate 0\.0"):
            sim.run()
