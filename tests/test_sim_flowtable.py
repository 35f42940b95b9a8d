"""FlowTable slot recycling.

Extends the PR 4 stale-slot regression (``current_rate`` after cancel)
to the structure-of-arrays table itself: slots are recycled through a
free list, so a finished flow's old slot may hold a younger flow's
state, and nothing may read it on the finished flow's behalf.

The fuzz test drives a live :class:`Simulation` through random
start/cancel/finish interleavings and checks, after every step, that
``current_rate`` answers from the querying flow's own tenancy — never
from a recycled slot.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulate import Simulation
from repro.simulate.flows import Flow
from repro.simulate.flowtable import FlowTable
from repro.simulate.resources import Resource


def make_flow(size=100.0, path=("r0",)):
    return Flow(size=size, path=tuple(path))


class TestSlotLifecycle:
    def test_acquire_stashes_fid_and_release_clears_it(self):
        table = FlowTable()
        f = make_flow()
        fid = table.acquire(f)
        assert f.fid == fid
        assert table.flow_at[fid] is f
        assert table.rem[fid] == f.remaining
        assert table.rate[fid] == 0.0
        table.release(f)
        assert f.fid == -1
        assert table.flow_at[fid] is None

    def test_release_restores_sentinels(self):
        table = FlowTable()
        f = make_flow(size=42.0)
        fid = table.acquire(f)
        table.rate[fid] = 7.0
        table.release(f)
        # A hole must predict completion at +inf and never drain.
        assert table.rem[fid] == np.inf
        assert table.rate[fid] == 1.0

    def test_views_track_growth(self):
        table = FlowTable()
        flows = [make_flow() for _ in range(3)]
        for f in flows:
            table.acquire(f)
        rem, rate, scratch = table.views()
        assert len(rem) == len(rate) == len(scratch) == 3
        assert rem.base is table.rem

    def test_settle_spares_free_slots(self):
        table = FlowTable()
        f, g = make_flow(size=10.0), make_flow(size=10.0)
        table.acquire(f)
        fid_g = table.acquire(g)
        table.rate[:2] = 2.0
        table.release(g)
        table.settle(1.0)
        assert table.rem[f.fid] == pytest.approx(8.0)
        assert table.rem[fid_g] == np.inf  # hole undisturbed


class TestRecyclingFuzz:
    """Random start/cancel/finish interleavings on a live engine."""

    RESOURCES = 4
    STEPS = 300

    def _make_sim(self):
        sim = Simulation()
        for i in range(self.RESOURCES):
            sim.add_resource(Resource(f"r{i}", 10.0))
        return sim

    def test_current_rate_never_reads_a_recycled_slot(self):
        rng = np.random.default_rng(20260809)
        sim = self._make_sim()
        table = sim._table
        live: list = []
        dead: list[tuple] = []  # (flow, fid) at death

        def on_finish(flow):
            live.remove(flow)
            dead.append((flow, death_fid[flow.flow_id]))

        # The fid must be captured *before* the engine releases the slot;
        # the finish callback runs after, so stash it at start/step time.
        death_fid: dict[int, int] = {}

        for _ in range(self.STEPS):
            for f in live:
                death_fid[f.flow_id] = f.fid
            op = rng.integers(3)
            if op == 0 or not live:
                size = float(rng.integers(5, 200))
                path = [f"r{i}" for i in sorted(
                    rng.choice(self.RESOURCES, size=int(rng.integers(1, 3)),
                               replace=False))]
                flow = sim.start_flow(size, path, on_finish)
                live.append(flow)
            elif op == 1:
                victim = live.pop(int(rng.integers(len(live))))
                death_fid[victim.flow_id] = victim.fid
                sim.cancel_flow(victim)
                dead.append((victim, death_fid[victim.flow_id]))
            else:
                sim.run(until=sim.now + float(rng.uniform(0.1, 3.0)))

            # Live flows answer from their own slot, dead flows from the
            # membership guard — never from whatever tenants their old
            # slots now have.
            for f in live:
                assert table.flow_at[f.fid] is f
                assert sim.current_rate(f) == float(table.rate[f.fid])
            for f, fid in dead:
                assert f.fid == -1
                assert sim.current_rate(f) == 0.0
                # The death-time slot is free or holds another tenant.
                assert table.flow_at[fid] is not f

        sim.run()
        assert not live
