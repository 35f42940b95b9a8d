"""Structural and differential tests for the incremental engine.

* the hot path must stay O(1)/O(Δ): a dict-backed flow registry and no
  hot-path regressions (``list.remove``, ``pop(0)``, ``insert(0, ..)``)
  anywhere in ``repro.simulate``/``repro.core`` — enforced through the
  opass-lint OPS005 rule via :mod:`repro.tools.api`, which generalises
  PR 1's bespoke engine-only ``list.remove`` ban to every hot-path
  module;
* the naive oracle :class:`tests.reference_sim.ReferenceSimulation`
  re-solves the whole network with the pure ``allocate_rates`` at every
  event — whole runs must match the engine event for event.
"""

from __future__ import annotations

import inspect
from pathlib import Path

import repro.simulate.engine as engine_mod
from repro.simulate import Simulation
from repro.simulate.resources import Resource
from repro.tools.api import lint_file, lint_paths
from tests.reference_sim import ReferenceSimulation


class TestStructure:
    def test_no_linear_list_remove_in_engine(self):
        """The O(F) ``self._active.remove(flow)`` pattern must not return.

        OPS005 permits ``.remove(`` only on `remove-allow` receivers —
        the allocator's O(|path|) ``_alloc.remove`` bookkeeping call.
        """
        engine_path = Path(inspect.getfile(engine_mod))
        report = lint_file(engine_path)
        assert not [v for v in report.violations if v.rule == "OPS005"], (
            report.render()
        )
        assert "_active" not in engine_path.read_text()

    def test_no_hot_path_regressions_anywhere(self):
        """OPS005 holds (fixed or justified) across simulate/ and core/.

        The generalisation of the old engine-only ban: `list.remove`,
        `list.pop(0)`, `list.insert(0, ..)` and loop string-building are
        banned in every hot-path module, and any exception must carry a
        written `# opass: ignore[OPS005] -- reason` suppression.
        """
        pkg_root = Path(inspect.getfile(engine_mod)).parent.parent
        report = lint_paths([pkg_root / "simulate", pkg_root / "core"])
        offenders = [v for v in report.violations if v.rule == "OPS005"]
        assert not offenders, report.render()
        for v in report.suppressed:
            if v.rule == "OPS005":
                assert v.reason, f"suppression without reason: {v.render()}"

    def test_flow_registry_is_dict(self):
        sim = Simulation()
        assert isinstance(sim._flows, dict)
        assert not hasattr(sim, "_active")

    def test_slot_ids_are_recycled(self):
        sim = Simulation()
        sim.add_resource(Resource("r", 10.0))
        table = sim._table
        flows = [sim.start_flow(100, ["r"], lambda f: None) for _ in range(5)]
        sim.cancel_flow(flows[1])
        sim.cancel_flow(flows[3])
        assert sim.active_flows == 3
        assert sorted(table.free_ids) == [1, 3]
        # a new flow reuses a freed slot instead of growing the arrays
        extra = sim.start_flow(100, ["r"], lambda f: None)
        assert extra.fid in (1, 3)
        assert len(table.flow_at) == 5


def build_workload(sim):
    """Mixed workload: shared bottlenecks, caps, cancels, timers."""
    sim.add_resources(
        [
            Resource("a", 10.0),
            Resource("b", 4.0),
            Resource("d", 100.0, concurrency_penalty=0.5),
        ]
    )
    events = []

    def note(tag):
        return lambda f=None: events.append((tag, sim.now))

    sim.start_flow(100, ["a", "b"], note("ab"))
    sim.start_flow(100, ["a"], note("a"))
    sim.start_flow(40, ["b"], note("b"), rate_cap=1.5)
    for i in range(4):
        sim.start_flow(60, ["d"], note(f"d{i}"))
    victim = sim.start_flow(500, ["a", "d"], note("victim"))
    sim.schedule(2.0, lambda: (sim.cancel_flow(victim), events.append(("cancel", sim.now))))
    sim.schedule(3.5, note("timer"))

    def spawn_late():
        sim.start_flow(25, ["b", "d"], note("late"))

    sim.schedule(4.0, spawn_late)
    return events


class TestReferenceDifferential:
    def test_runs_match_event_for_event(self):
        runs = {}
        for name, factory in (("engine", Simulation), ("oracle", ReferenceSimulation)):
            sim = factory()
            events = build_workload(sim)
            end = sim.run()
            runs[name] = (events, end, sim.events_processed, sim.completed_flows)
        # Every solve here covers one connected component, which the
        # engine solves with the oracle's own arithmetic: exact match.
        assert runs["engine"] == runs["oracle"]

    def test_partial_run_remaining_match(self):
        states = {}
        for name, factory in (("engine", Simulation), ("oracle", ReferenceSimulation)):
            sim = factory()
            sim.add_resources([Resource("a", 10.0), Resource("b", 4.0)])
            f1 = sim.start_flow(100, ["a", "b"], lambda f: None)
            f2 = sim.start_flow(100, ["a"], lambda f: None)
            sim.run(until=3.0)
            states[name] = (sim.now, f1.remaining, f2.remaining)
        assert states["engine"] == states["oracle"]
        assert states["engine"][0] == 3.0

    def test_current_rate_matches(self):
        rates = {}
        for name, factory in (("engine", Simulation), ("oracle", ReferenceSimulation)):
            sim = factory()
            sim.add_resources([Resource("a", 10.0), Resource("b", 4.0)])
            f1 = sim.start_flow(100, ["a", "b"], lambda f: None)
            f2 = sim.start_flow(100, ["a"], lambda f: None)
            f3 = sim.start_flow(100, ["b"], lambda f: None, rate_cap=1.0)
            rates[name] = (sim.current_rate(f1), sim.current_rate(f2), sim.current_rate(f3))
        assert rates["engine"] == rates["oracle"]
