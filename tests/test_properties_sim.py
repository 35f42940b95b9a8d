"""Property-based tests for the flow simulator.

Invariants:
* max-min allocation is feasible (no resource over effective capacity) and
  max-min optimal (every flow bottlenecked or capped);
* frozen-allocation monotonicity: adding a flow never increases another
  flow's rate;
* conservation: a run's total bytes read equals the workload's bytes;
* simulated duration of an isolated flow equals size/bottleneck exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simulate.engine import Simulation
from repro.simulate.flows import Flow, allocate_rates, verify_allocation
from repro.simulate.resources import Resource


@st.composite
def flow_systems(draw):
    num_resources = draw(st.integers(min_value=1, max_value=6))
    names = [f"r{i}" for i in range(num_resources)]
    resources = {
        n: Resource(
            n,
            draw(st.floats(min_value=1.0, max_value=100.0)),
            draw(st.sampled_from([0.0, 0.1, 0.5])),
        )
        for n in names
    }
    num_flows = draw(st.integers(min_value=1, max_value=10))
    flows = []
    for _ in range(num_flows):
        k = draw(st.integers(min_value=1, max_value=num_resources))
        path = tuple(draw(st.permutations(names))[:k])
        cap = draw(st.one_of(st.none(), st.floats(min_value=0.5, max_value=50.0)))
        flows.append(Flow(draw(st.floats(min_value=1.0, max_value=1e6)), path, rate_cap=cap))
    return flows, resources


@given(flow_systems())
@settings(max_examples=100, deadline=None)
def test_allocation_feasible_and_maxmin(system):
    flows, resources = system
    rates = allocate_rates(flows, resources)
    assert set(rates) == set(flows)
    assert all(r > 0 for r in rates.values())
    verify_allocation(flows, resources, rates)


@given(flow_systems())
@settings(max_examples=60, deadline=None)
def test_adding_flow_never_raises_min_rate(system):
    """Max-min maximises the minimum rate; a superset of flows on the same
    capacities can only lower it.  (Individual non-bottlenecked flows *can*
    legitimately speed up when a new flow shifts a bottleneck.)"""
    flows, resources = system
    if len(flows) < 2:
        return
    before = allocate_rates(flows[:-1], resources)
    after = allocate_rates(flows, resources)
    assert min(after.values()) <= min(before.values()) * (1 + 1e-6)


@given(
    st.floats(min_value=1.0, max_value=1e6),
    st.floats(min_value=0.5, max_value=200.0),
)
@settings(max_examples=40, deadline=None)
def test_isolated_flow_duration_exact(size, capacity):
    sim = Simulation()
    sim.add_resource(Resource("r", capacity))
    done = []
    sim.start_flow(size, ["r"], lambda f: done.append(sim.now))
    sim.run()
    assert done[0] == pytest.approx(size / capacity, rel=1e-6)


@given(st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=8))
@example(sizes=[1.0000000000000002, 1.0])
@settings(max_examples=40, deadline=None)
def test_shared_resource_completion_order_by_size(sizes):
    """Flows sharing one resource from t=0 finish in size order, per instant.

    The tie contract: flows that finish at the same ``sim.now`` fire in
    ``flow_id`` order.  Across instants, sizes do not decrease.  Sizes one
    ulp apart may finish at one instant (the engine's 1e-9-relative tie
    window), so within an instant the larger flow may fire first.
    """
    sim = Simulation()
    sim.add_resource(Resource("r", 10.0))
    fired = []
    for s in sizes:
        sim.start_flow(s, ["r"], lambda f: fired.append((sim.now, f.flow_id, f.size)))
    sim.run()
    assert len(fired) == len(sizes)
    instants: dict[float, list[tuple[int, float]]] = {}
    for now, flow_id, size in fired:
        instants.setdefault(now, []).append((flow_id, size))
    assert list(instants) == sorted(instants)
    for group in instants.values():
        ids = [flow_id for flow_id, _ in group]
        assert ids == sorted(ids)
    groups = list(instants.values())
    for earlier, later in zip(groups, groups[1:]):
        assert max(s for _, s in earlier) <= min(s for _, s in later)


@given(st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_work_conservation_single_resource(sizes):
    """Total completion time of the last flow ≥ total work / capacity, with
    equality when all flows start at t=0 and share one resource."""
    cap = 7.0
    sim = Simulation()
    sim.add_resource(Resource("r", cap))
    ends = []
    for s in sizes:
        sim.start_flow(s, ["r"], lambda f: ends.append(sim.now))
    sim.run()
    assert max(ends) == pytest.approx(sum(sizes) / cap, rel=1e-6)
