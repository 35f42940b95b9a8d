"""Tests for the discrete-event engine."""

import pytest

from repro.simulate.engine import Simulation
from repro.simulate.resources import Resource


@pytest.fixture
def sim():
    s = Simulation()
    s.add_resource(Resource("r", 10.0))
    s.add_resource(Resource("q", 5.0))
    return s


class TestTimers:
    def test_timer_fires_at_time(self, sim):
        fired = []
        sim.schedule(2.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.5]

    def test_timers_in_order(self, sim):
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self, sim):
        order = []
        sim.schedule(1.0, lambda: order.append(1))
        sim.schedule(1.0, lambda: order.append(2))
        sim.run()
        assert order == [1, 2]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_nan_delay_rejected(self, sim):
        with pytest.raises(ValueError, match="finite"):
            sim.schedule(float("nan"), lambda: None)

    def test_infinite_delay_rejected(self, sim):
        with pytest.raises(ValueError, match="finite"):
            sim.schedule(float("inf"), lambda: None)

    def test_nested_scheduling(self, sim):
        events = []

        def first():
            events.append(sim.now)
            sim.schedule(1.0, lambda: events.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert events == [1.0, 2.0]


class TestFlows:
    def test_single_flow_duration(self, sim):
        done = []
        sim.start_flow(100, ["r"], lambda f: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(10.0)]
        assert sim.completed_flows == 1

    def test_two_flows_share_then_speed_up(self, sim):
        """Two equal flows: first halves finish together... equal flows on
        one resource finish simultaneously; a shorter one frees capacity."""
        done = {}
        sim.start_flow(50, ["r"], lambda f: done.__setitem__("short", sim.now))
        sim.start_flow(100, ["r"], lambda f: done.__setitem__("long", sim.now))
        sim.run()
        # Shared 5/s each: short finishes at t=10 having moved 50.
        assert done["short"] == pytest.approx(10.0)
        # Long moved 50 by t=10, then full 10/s: +5 s.
        assert done["long"] == pytest.approx(15.0)

    def test_flow_on_unknown_resource(self, sim):
        with pytest.raises(KeyError):
            sim.start_flow(1, ["zzz"], lambda f: None)

    def test_rate_cap_respected(self, sim):
        done = []
        sim.start_flow(10, ["r"], lambda f: done.append(sim.now), rate_cap=2.0)
        sim.run()
        assert done == [pytest.approx(5.0)]

    def test_flow_started_by_timer(self, sim):
        done = []
        sim.schedule(1.0, lambda: sim.start_flow(10, ["r"], lambda f: done.append(sim.now)))
        sim.run()
        assert done == [pytest.approx(2.0)]

    def test_chained_flows(self, sim):
        done = []

        def second(_f):
            sim.start_flow(20, ["q"], lambda f: done.append(sim.now))

        sim.start_flow(10, ["r"], second)
        sim.run()
        assert done == [pytest.approx(1.0 + 4.0)]

    def test_payload_passed_through(self, sim):
        got = []
        sim.start_flow(1, ["r"], lambda f: got.append(f.payload), payload="tag")
        sim.run()
        assert got == ["tag"]

    def test_current_rate(self, sim):
        f1 = sim.start_flow(100, ["r"], lambda f: None)
        assert sim.current_rate(f1) == pytest.approx(10.0)
        f2 = sim.start_flow(100, ["r"], lambda f: None)
        assert sim.current_rate(f1) == pytest.approx(5.0)
        assert sim.current_rate(f2) == pytest.approx(5.0)


class TestRunControl:
    def test_run_until(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append(True))
        sim.run(until=2.0)
        assert sim.now == 2.0
        assert not fired
        sim.run()
        assert fired

    def test_until_advances_flows_partially(self, sim):
        f = sim.start_flow(100, ["r"], lambda _: None)
        sim.run(until=4.0)
        assert f.remaining == pytest.approx(60.0)

    def test_until_before_now_rejected(self, sim):
        """A bounded run never rewinds the clock: the flow that would
        finish at 10.0 still does."""
        done = []
        sim.start_flow(100, ["r"], lambda f: done.append(sim.now))
        sim.run(until=5.0)
        with pytest.raises(ValueError, match="before now"):
            sim.run(until=2.0)
        assert sim.now == 5.0
        sim.run()
        assert done == [10.0]

    def test_negative_until_rejected(self, sim):
        with pytest.raises(ValueError, match="before now"):
            sim.run(until=-1.0)
        assert sim.now == 0.0

    def test_nan_until_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        with pytest.raises(ValueError, match="NaN"):
            sim.run(until=float("nan"))
        assert sim.now == 0.0 and sim.events_processed == 0

    def test_until_equal_to_now_processes_due_events(self, sim):
        fired = []
        sim.schedule(0.0, lambda: fired.append(sim.now))
        assert sim.run(until=0.0) == 0.0
        assert fired == [0.0]

    def test_max_events_guard(self, sim):
        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(RuntimeError, match="events"):
            sim.run(max_events=100)

    def test_empty_run_returns_zero(self, sim):
        assert sim.run() == 0.0

    def test_duplicate_resource_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.add_resource(Resource("r", 1.0))

    def test_has_resource(self, sim):
        assert sim.has_resource("r")
        assert not sim.has_resource("nope")

    def test_events_counted(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.start_flow(10, ["r"], lambda f: None)
        sim.run()
        assert sim.events_processed == 2
