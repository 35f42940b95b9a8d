"""Differential tests for the engine's fused event loop.

The loop (:meth:`repro.simulate.engine.Simulation.run`) is pinned two
ways, over a scripted fuzz interleaving the hazards that could break them —
completion cascades, same-timestamp timer waves, flow starts/cancels
*during* a cascade, and FlowTable slot recycling inside a cascade:

* **split runs**: the same script run in one ``run()`` and split by 25+
  ``run(until=...)`` cuts must emit byte-identical event logs (times
  compared by ``repr``) — a bounded run must stop without perturbing a
  single float;
* **the naive oracle**: :class:`tests.reference_sim.ReferenceSimulation`
  (whole-network ``allocate_rates`` and a full settle at every event,
  full-scan prediction, ``flow_id``-ordered retires) must emit the same
  events in the same order, with times within 1e-9 relative.

The cascade telemetry counters are pinned directly.
"""

from __future__ import annotations

import random

import pytest

from repro.simulate import Simulation
from repro.simulate.flows import Flow
from repro.simulate.resources import Resource
from tests.reference_sim import ReferenceSimulation

#: Scripts per fuzz: each is replayed split, unsplit and on the oracle.
FUZZ_SEEDS = range(32)


def _grid_sim(factory, n: int = 6):
    sim = factory()
    for i in range(n):
        sim.add_resource(Resource(f"r{i}", 10.0))
    return sim


def _fuzz_script(seed: int, waves: int = 120):
    """A deterministic action script (built once, replayed per engine).

    Timer times are drawn from a coarse grid so several waves land on
    the *exact same* float timestamp (coalescing + tie-snap pressure);
    sizes repeat so completions tie; paths overlap so components merge
    and split while cascades run.
    """
    rng = random.Random(seed)
    script = []
    for _ in range(waves):
        t = rng.choice((0.5, 1.0, 1.0, 1.5, 2.0, 2.0, 2.0, 3.0, 4.5)) * (
            1 + rng.randrange(6)
        )
        kind = rng.random()
        if kind < 0.55:
            size = rng.choice((10.0, 20.0, 20.0, 40.0, 80.0))
            k = rng.choice((1, 1, 2, 2, 3))
            first = rng.randrange(6)
            path = tuple(f"r{(first + j) % 6}" for j in range(k))
            script.append(("start", t, size, path))
        elif kind < 0.8:
            script.append(("cancel", t, rng.randrange(1 << 30)))
        else:
            # chain: when the flow completing at this point finishes,
            # its callback immediately starts a follow-up flow — the
            # start lands *inside* a completion cascade and recycles the
            # just-freed slot.
            size = rng.choice((10.0, 20.0))
            first = rng.randrange(6)
            path = (f"r{first}", f"r{(first + 1) % 6}")
            script.append(("chain", t, size, path))
    return script


def _cuts(seed: int, end: float, n: int = 25) -> list[float]:
    """``n`` random cut points over ``[0, end]`` plus the script's timer
    grid instants, so some cuts land exactly on an event."""
    rng = random.Random(seed ^ 0x5EED)
    grid = [0.5 * k for k in range(1, 13)]
    return sorted(set([rng.uniform(0.0, end) for _ in range(n)] + grid))


def _run_script(seed: int, factory=Simulation, cuts=()):
    """Replay one script; returns the completion/cancel event log."""
    sim = _grid_sim(factory)
    log: list[tuple] = []
    active: list[Flow] = []
    chain_next: list[tuple] = []
    # flow_id is a process-global counter; log per-run ordinals so the
    # runs compare structurally.
    ordinal: dict[int, int] = {}

    def track(f: Flow) -> Flow:
        ordinal[f.flow_id] = len(ordinal)
        active.append(f)
        return f

    def finish(flow: Flow) -> None:
        log.append(("done", repr(sim.now), ordinal[flow.flow_id]))
        if flow in active:
            active.remove(flow)
        if chain_next:
            size, path = chain_next.pop()
            f2 = track(sim.start_flow(size, path, finish))
            log.append(("chained", repr(sim.now), ordinal[f2.flow_id]))

    def apply(action) -> None:
        if action[0] == "start":
            _, _, size, path = action
            track(sim.start_flow(size, path, finish))
        elif action[0] == "cancel":
            if active:
                victim = active.pop(action[2] % len(active))
                sim.cancel_flow(victim)
                log.append(("cancel", repr(sim.now), ordinal[victim.flow_id]))
        else:
            _, _, size, path = action
            chain_next.append((size, path))

    for action in _fuzz_script(seed):
        sim.schedule(action[1], lambda a=action: apply(a))
    for cut in cuts:
        assert sim.run(until=cut) == cut
    sim.run()
    return log, sim


class TestFuzzIdentity:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_interleaved_trace_identity(self, seed):
        """start/cancel/chain × same-timestamp waves × slot recycling:
        a run split by 25+ ``until`` cuts emits the unsplit run's trace,
        with event times compared by repr (bit-for-bit)."""
        log, sim = _run_script(seed)
        cuts = _cuts(seed, sim.now)
        assert len(cuts) >= 25
        log_split, sim_split = _run_script(seed, cuts=cuts)
        assert log_split == log
        assert sim_split.now == sim.now
        assert sim_split.events_processed == sim.events_processed

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_engine_matches_reference_oracle(self, seed):
        """The same scripts on the naive engine: identical event kinds,
        flows and order; times within 1e-9 relative."""
        log, sim = _run_script(seed)
        log_ref, ref = _run_script(seed, ReferenceSimulation)
        assert [(kind, o) for kind, _, o in log] == [
            (kind, o) for kind, _, o in log_ref
        ]
        for (_, t, _), (_, t_ref, _) in zip(log, log_ref):
            assert float(t) == pytest.approx(float(t_ref), rel=1e-9, abs=1e-12)
        assert sim.now == pytest.approx(ref.now, rel=1e-9)
        assert sim.events_processed == ref.events_processed

    def test_fuzz_exercises_the_hazards(self):
        """The scripts actually cover what they claim to cover."""
        cascades = cancels = chained = coalesced = 0
        for seed in range(8):
            log, sim = _run_script(seed)
            cascades += sim.perf.fastforward_cascades
            coalesced += sim.perf.coalesced_events
            cancels += sum(1 for e in log if e[0] == "cancel")
            chained += sum(1 for e in log if e[0] == "chained")
        assert cascades > 0
        assert coalesced > 0
        assert cancels > 0
        assert chained > 0


class TestCascadeCounters:
    def test_cascade_run_on_staggered_completions(self):
        """Distinct-size flows on one resource complete back-to-back with
        no timers in between: one cascade run spanning all of them."""
        sim = Simulation()
        sim.add_resource(Resource("r", 30.0))
        for size in (30.0, 60.0, 90.0):
            sim.start_flow(size, ("r",), lambda f: None)
        sim.run()
        assert sim.perf.flows_finished == 3
        assert sim.perf.fastforward_cascades == 1
        # cascade_events counts events beyond the first of each run.
        assert sim.perf.cascade_events == sim.perf.flow_events - 1

    def test_bounded_run_resumes_the_same_loop(self):
        """run(until=...) stops mid-flow and resumes without moving the
        completion: 50 B at 10 B/s finishes at exactly 5.0."""
        sim = Simulation()
        sim.add_resource(Resource("r", 10.0))
        done = []
        sim.start_flow(50.0, ("r",), lambda f: done.append(sim.now))
        sim.run(until=1.0)
        assert not done and sim.now == 1.0
        sim.run()
        assert done == [5.0]

