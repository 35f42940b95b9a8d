"""Differential fuzz: flat/vectorized water-filling kernels vs the reference.

The kernels in ``repro.simulate.vectorized`` claim *bit-for-bit* equality
with ``allocate_rates`` run on the same component — not approximate
equality.  Every test here asserts ``==`` on the raw floats (and equality
of iteration counts), across the regimes where float rounding could
plausibly diverge: rate-capped flows frozen in the 1e-12 cap window,
components engineered to produce float ties, singleton components (the
closed-form path), resources at the concurrency threshold, and sizes
straddling the scalar/numpy dispatch cutoff.

A second group pins the allocator-level contract: through add/remove
churn, the ``ComponentAllocator``'s rates (read back through the
FlowTable-backed ``tests/table_allocator.py``) equal ``allocate_rates``
run once per brute-force component over its live flows in insertion
order, and every lowered form the allocator keeps for a numpy-tier
component equals, and solves exactly like, one lowered from scratch.
"""

from __future__ import annotations

import random

import pytest

from repro.simulate.components import _Lowered, _lower
from repro.simulate.flows import Flow, allocate_rates
from repro.simulate.resources import Resource
from repro.simulate.vectorized import (
    VECTOR_MIN_FLOWS,
    res_entry,
    solve_large,
    solve_single,
    solve_small,
)

from .table_allocator import TableAllocator
from .test_properties_components import bruteforce_partition


def _res_caps(resources):
    return {name: res_entry(r) for name, r in resources.items()}


def solve_component(members, resources):
    """Rates (member order) + iterations via the allocator's dispatch.

    Mirrors :class:`~repro.simulate.components.ComponentAllocator`: the
    closed form for singletons, :func:`solve_small` below the cutoff
    (pairs included), and at and above it :func:`solve_large` over a
    fresh lowering (the allocator keeps its lowered form current across
    solves instead).
    """
    res_caps = _res_caps(resources)
    if len(members) == 1:
        return [solve_single(members[0], res_caps)], 1
    if len(members) < VECTOR_MIN_FLOWS:
        return solve_small(members, res_caps)
    return _solve_large_on(members, resources)


def _reference_rates(flows, resources):
    stats: dict[str, int] = {}
    rates = allocate_rates(flows, resources, stats=stats)
    return [rates[f] for f in flows], stats["iterations"]


def _solve_form(form):
    """The numpy kernel on a lowered form: rates by slot, iterations."""
    return solve_large(form.paths, form.users, form.cols, form.capped)


def _solve_large_on(flows, resources, row_order=()):
    """The numpy kernel on a fresh lowering of ``flows`` (slot = list
    index); rates in list order.  ``row_order`` numbers rows before any
    member enters, so the rows of resources no member crosses stay
    inert."""
    res_caps = _res_caps(resources)
    form = _Lowered()
    for name in row_order:
        form.new_row(name, res_caps)
    for fid, f in enumerate(flows):
        form.enter(f, fid, res_caps)
    rates, iters = _solve_form(form)
    return [rates[fid] for fid in range(len(flows))], iters


def _assert_identical(flows, resources):
    got, got_iters = solve_component(flows, resources)
    want, want_iters = _reference_rates(flows, resources)
    assert got == want
    assert got_iters == want_iters
    if len(flows) > 1:
        # The numpy kernel must agree at every size, not only where the
        # dispatch sends it, whatever order the rows take (every resource
        # gets a row in shuffled order, so unused ones sit inert), and
        # whatever order the members come in (the allocator keeps them
        # in component order, not in the reference's active-list order).
        rows = list(resources)
        random.Random(len(flows)).shuffle(rows)
        assert _solve_large_on(flows, resources, rows) == (want, want_iters)
        perm = list(range(len(flows)))
        random.Random(len(flows)).shuffle(perm)
        rates, iters = _solve_large_on([flows[i] for i in perm], resources, rows)
        assert [rates[perm.index(i)] for i in range(len(flows))] == want
        assert iters == want_iters


def _random_component(rng: random.Random, nflows: int):
    """A connected random flow set over shared resources."""
    nres = rng.randint(1, max(1, nflows))
    resources = {}
    for i in range(nres):
        if rng.random() < 0.3:
            resources[f"r{i}"] = rng.choice([1.0, 10.0, 100e6, 1e9])
        else:
            resources[f"r{i}"] = Resource(
                name=f"r{i}",
                capacity=rng.choice([1.0, 3.0, 10.0, 125e6, 1e9]),
                concurrency_penalty=rng.choice([0.0, 0.02, 0.1, 1.0]),
            )
    names = list(resources)
    flows = []
    for _ in range(nflows):
        path = tuple(rng.sample(names, rng.randint(1, min(4, nres))))
        cap = None
        if rng.random() < 0.4:
            cap = rng.choice([0.5, 1.0, 2.0, 100e6, 1e9, 5e9])
        flows.append(Flow(size=1.0, path=path, rate_cap=cap))
    return flows, resources


@pytest.mark.parametrize("seed", range(40))
def test_fuzz_matches_reference_bitwise(seed):
    rng = random.Random(seed)
    nflows = rng.randint(1, 3 * VECTOR_MIN_FLOWS)
    flows, resources = _random_component(rng, nflows)
    _assert_identical(flows, resources)


@pytest.mark.parametrize("nflows", [1, 2, VECTOR_MIN_FLOWS - 1, VECTOR_MIN_FLOWS, 2 * VECTOR_MIN_FLOWS])
def test_dispatch_cutoff_straddle(nflows):
    """Both sides of the scalar/numpy cutoff agree with the reference."""
    rng = random.Random(nflows)
    flows, resources = _random_component(rng, nflows)
    _assert_identical(flows, resources)


@pytest.mark.parametrize("seed", range(25))
def test_pair_kernel_fuzz(seed):
    """Two-flow components (run through ``solve_small``): shared,
    disjoint, capped, tied, degenerate."""
    rng = random.Random(9000 + seed)
    flows, resources = _random_component(rng, 2)
    _assert_identical(flows, resources)


def test_single_flow_closed_form():
    resources = {
        "d": Resource(name="d", capacity=80e6, concurrency_penalty=0.05),
        "t": 125e6,
    }
    f_uncapped = Flow(size=1.0, path=("d", "t"))
    f_capped = Flow(size=1.0, path=("d", "t"), rate_cap=10e6)
    f_cap_at_min = Flow(size=1.0, path=("d", "t"), rate_cap=80e6)
    for f in (f_uncapped, f_capped, f_cap_at_min):
        _assert_identical([f], resources)
    assert solve_single(f_uncapped, _res_caps(resources)) == 80e6
    assert solve_single(f_capped, _res_caps(resources)) == 10e6
    assert solve_single(f_cap_at_min, _res_caps(resources)) == 80e6


def test_rate_caps_in_freeze_window():
    """Caps exactly at, just inside, and just outside the 1e-12 window."""
    resources = {"d": 10.0}
    base = 10.0 / 4  # fair share of four flows on one resource
    for cap in (base, base - 1e-13, base - 1e-11, base + 1e-11, 1.0, 9.0):
        flows = [Flow(size=1.0, path=("d",), rate_cap=cap)] + [
            Flow(size=1.0, path=("d",)) for _ in range(3)
        ]
        _assert_identical(flows, resources)


def test_float_tie_components():
    """Equal fair shares on parallel resources freeze identically."""
    # Two disks with identical capacity, shared uplink: every flow's
    # bottleneck computes to the same float level.
    resources = {
        "d0": Resource(name="d0", capacity=7.0, concurrency_penalty=0.1),
        "d1": Resource(name="d1", capacity=7.0, concurrency_penalty=0.1),
        "up": 100.0,
    }
    flows = [Flow(size=1.0, path=(d, "up")) for d in ("d0", "d1") for _ in range(5)]
    _assert_identical(flows, resources)
    # Identical rate caps: the stable sort order must match.
    flows = [Flow(size=1.0, path=("up",), rate_cap=3.0) for _ in range(6)]
    _assert_identical(flows, resources)


def test_resources_at_concurrency_threshold():
    """k == 1 vs k == 2 straddles the effective-capacity branch."""
    resources = {
        "d": Resource(name="d", capacity=50.0, concurrency_penalty=0.25),
        "e": Resource(name="e", capacity=50.0, concurrency_penalty=0.25),
    }
    _assert_identical([Flow(size=1.0, path=("d",))], resources)
    _assert_identical(
        [Flow(size=1.0, path=("d",)), Flow(size=1.0, path=("d", "e"))], resources
    )


def test_large_vectorized_component():
    """A big dense component exercises repeated numpy iterations."""
    rng = random.Random(1234)
    nres = 20
    resources = {
        f"r{i}": Resource(
            name=f"r{i}",
            capacity=rng.choice([10.0, 20.0, 40.0]),
            concurrency_penalty=0.05,
        )
        for i in range(nres)
    }
    names = list(resources)
    flows = [
        Flow(
            size=1.0,
            path=tuple(rng.sample(names, 3)),
            rate_cap=rng.choice([None, 0.3, 1.0, 4.0]),
        )
        for _ in range(200)
    ]
    _assert_identical(flows, resources)


def test_underflow_fallback_freezes_all():
    """Degenerate capacities hit the no-freeze guard identically."""
    tiny = 5e-324  # smallest subnormal: delta underflows to 0 after a freeze
    resources = {"a": tiny, "b": 1.0}
    flows = [
        Flow(size=1.0, path=("a", "b")),
        Flow(size=1.0, path=("b",), rate_cap=1e-320),
        Flow(size=1.0, path=("b",)),
    ]
    _assert_identical(flows, resources)


@pytest.mark.parametrize("extra", [0, VECTOR_MIN_FLOWS])
def test_underflow_stall_freezes_survivors_at_the_level(extra):
    """A stall after the level has risen: the survivors take that level.

    In ulps of the smallest subnormal: "u" (6) saturates first and lifts
    the level to 6, leaving "t" (19, three flows) 1 ulp free, above its
    zero threshold; the next room, 1/3 ulp, rounds to 0, so nothing
    freezes and the fallback does.  ``extra`` flows on a roomy resource
    push the component onto the numpy tier and also freeze in the
    fallback."""
    ulp = 5e-324
    resources = {"t": 19 * ulp, "u": 6 * ulp, "v": 1.0}
    flows = [Flow(size=1.0, path=("t",)) for _ in range(3)]
    flows.append(Flow(size=1.0, path=("u",)))
    flows += [Flow(size=1.0, path=("v",)) for _ in range(extra)]
    _assert_identical(flows, resources)
    rates, iters = solve_component(flows, resources)
    assert iters == 2
    assert set(rates) == {6 * ulp}


def test_large_equal_cap_ties_with_uncapped_flows():
    """On the numpy tier: many flows share one cap, others share another
    or have none, and a shared resource binds part of them."""
    rng = random.Random(77)
    resources = {
        "hub": Resource(name="hub", capacity=150.0, concurrency_penalty=0.02),
        **{f"d{i}": float(rng.choice([3, 4, 6])) for i in range(12)},
    }
    flows = []
    for i in range(3 * VECTOR_MIN_FLOWS // 2):
        path = ("hub", f"d{i % 12}") if i % 3 else (f"d{i % 12}",)
        cap = (None, 2.0, 2.0, 2.0, 3.5, 3.5)[i % 6]
        flows.append(Flow(size=1.0, path=path, rate_cap=cap))
    _assert_identical(flows, resources)


# -- allocator-level differential -------------------------------------------


def _random_resources(rng: random.Random, n: int):
    out = {}
    for i in range(n):
        out[f"r{i}"] = Resource(
            name=f"r{i}",
            capacity=rng.choice([1.0, 5.0, 80e6, 125e6]),
            concurrency_penalty=rng.choice([0.0, 0.05, 0.5]),
        )
    return out


def _oracle_rates(live, resources, stats=None):
    """``allocate_rates`` once per brute-force component, each over its
    live flows in insertion order (``live`` keeps that order); ``stats``
    collects the summed ``iterations`` and the ``components`` count."""
    rates: dict[Flow, float] = {}
    comps = bruteforce_partition(live)
    iterations = 0
    for comp in comps:
        one: dict[str, int] = {}
        members = [f for f in live if f in comp]
        rates.update(allocate_rates(members, resources, stats=one))
        iterations += one["iterations"]
    if stats is not None:
        stats.update(iterations=iterations, components=len(comps))
    return rates


def _assert_fresh_solve_matches(live, resources):
    """A new allocator over ``live`` solves every component once: its
    rates, iteration count and solve count all match the oracle's."""
    fresh = TableAllocator()
    for name, r in resources.items():
        fresh.register(name, r)
    for f in live:
        fresh.add(f)
    stats: dict[str, int] = {}
    assert fresh.solve() == _oracle_rates(live, resources, stats)
    assert fresh.last_iterations == stats["iterations"]
    assert fresh.last_component_solves == stats["components"]


@pytest.mark.parametrize("seed", range(10))
def test_allocator_auto_vs_reference_kernel_churn(seed):
    """Allocator rates == the per-component reference through churn."""
    rng = random.Random(1000 + seed)
    resources = _random_resources(rng, 12)
    names = list(resources)
    auto = TableAllocator()
    for name, r in resources.items():
        auto.register(name, r)
    live: list[Flow] = []
    for step in range(120):
        if live and rng.random() < 0.35:
            auto.remove(live.pop(rng.randrange(len(live))))
        else:
            path = tuple(rng.sample(names, rng.randint(1, 3)))
            cap = rng.choice([None, None, 1.0, 60e6])
            f = Flow(size=1.0, path=path, rate_cap=cap)
            live.append(f)
            auto.add(f)
        if rng.random() < 0.5:
            assert auto.solve() == _oracle_rates(live, resources)
    assert auto.solve() == _oracle_rates(live, resources)
    _assert_fresh_solve_matches(live, resources)


def _island_flow(rng, island, bridge=None):
    path = rng.sample(island, rng.randint(1, 2))
    if bridge is not None:
        path.append(bridge)
    # Most flows share one rate cap, so the cap-sorted prefix freezes
    # many flows in the same iteration.
    cap = 4.0 if rng.random() < 0.7 else rng.choice([None, 1.5, 60e6])
    return Flow(size=1.0, path=tuple(path), rate_cap=cap)


@pytest.mark.parametrize("seed", range(6))
def test_allocator_large_components_churn(seed):
    """Numpy-tier components through churn: grown past the cutoff,
    resources registered in shuffled order, a shared rate cap, and a
    large component split three ways by removing its bridges."""
    rng = random.Random(7000 + seed)
    islands = [[f"i{k}r{j}" for j in range(5)] for k in range(3)]
    bridges = ["b01", "b12"]
    resources = {}
    for name in [n for isl in islands for n in isl] + bridges:
        resources[name] = Resource(
            name=name,
            capacity=rng.choice([20.0, 40.0, 125.0]),
            concurrency_penalty=rng.choice([0.0, 0.02, 0.1]),
        )
    order = list(resources)
    rng.shuffle(order)
    auto = TableAllocator()
    for name in order:
        auto.register(name, resources[name])

    live: list[Flow] = []

    def add(f):
        live.append(f)
        auto.add(f)

    def remove(f):
        live.remove(f)
        auto.remove(f)

    def check():
        assert auto.solve() == _oracle_rates(live, resources)
        assert {frozenset(c) for c in auto.components()} == bruteforce_partition(live)

    for isl in islands:
        # A spine keeps each island connected, whatever the random flows.
        for a, b in zip(isl, isl[1:]):
            add(Flow(size=1.0, path=(a, b), rate_cap=4.0))
        for _ in range(VECTOR_MIN_FLOWS // 2):
            add(_island_flow(rng, isl))
    check()
    assert len(auto.components()) == 3
    links = [
        _island_flow(rng, islands[0], "b01"),
        _island_flow(rng, islands[1], "b01"),
        _island_flow(rng, islands[1], "b12"),
        _island_flow(rng, islands[2], "b12"),
    ]
    for f in links:
        add(f)
    check()
    assert auto.last_vectorized_solves == 1
    assert len(auto.components()) == 1

    add(_island_flow(rng, islands[0]))
    check()
    assert auto.last_vectorized_solves == auto.last_component_solves == 1

    # Churn inside the merged component, solving as we go.
    for _ in range(40):
        if rng.random() < 0.4:
            f = rng.choice([g for g in live if g not in links])
            remove(f)
        else:
            add(_island_flow(rng, rng.choice(islands)))
        if rng.random() < 0.5:
            check()

    # Dropping the bridges splits it into one component per island.
    for f in links:
        remove(f)
    check()
    parts = auto.components()
    assert len(parts) >= 3
    assert max(len(c) for c in parts) >= VECTOR_MIN_FLOWS // 2
    _assert_fresh_solve_matches(live, resources)


def _form_by_name(form):
    """A lowered form as plain data keyed by resource name, over its
    live rows: (capacity, penalty, count, member slots) per row, each
    member's path as names in member order, and the cap groups as
    sets.  Two forms of one component compare equal whatever their row
    numbering and inert rows."""
    nrows = len(form.users)
    names = {i: name for name, i in form.row.items()}
    assert sorted(names) == list(range(nrows))
    for i, on in enumerate(form.users):
        assert form.cols[2, i] == len(on)
    # Room past the last row holds zero counts, ready for a new row.
    assert not form.cols[2, nrows:].any()
    rows = {
        names[i]: (*form.cols[:, i], set(on))
        for i, on in enumerate(form.users)
        if on
    }
    paths = [(fid, tuple(names[i] for i in p)) for fid, p in form.paths.items()]
    capped = {c: set(on) for c, on in form.capped.items()}
    assert all(capped.values())
    return rows, paths, capped


def _assert_forms_exact(alloc):
    """Every kept form equals a fresh lowering of its component, holds
    its members in component order, and keeps no probes for a component
    below the cutoff."""
    for cid, form in alloc._forms.items():
        group = alloc._comp_flows[cid]
        fresh = _lower(group, alloc._res_caps)
        assert _form_by_name(form) == _form_by_name(fresh)
        assert [(fid, f.path) for f, fid in group.items()] == _form_by_name(form)[1]
        if form.probes:
            assert set(form.probes) <= {i for i, on in enumerate(form.users) if on}


def _assert_forms_solve_exactly(alloc, resources):
    """After a solve: each kept form solves to the rates and iteration
    count of a fresh lowering and of ``allocate_rates`` on its members
    in active-list order, and the allocator holds those rates."""
    for cid, form in alloc._forms.items():
        group = alloc._comp_flows[cid]
        assert len(group) >= VECTOR_MIN_FLOWS
        assert form.probes == {}
        kept = _solve_form(form)
        fresh = _solve_form(_lower(group, alloc._res_caps))
        assert list(kept[0].items()) == list(fresh[0].items())
        assert kept[1] == fresh[1]
        members = sorted(group, key=lambda f: f.flow_id)
        stats: dict[str, int] = {}
        want = allocate_rates(members, resources, stats=stats)
        assert kept[0] == {group[f]: rate for f, rate in want.items()}
        assert kept[1] == stats["iterations"]
        rate = alloc.table.rate
        assert all(rate[fid] == r for fid, r in kept[0].items())


def _checked_solve(alloc, live, resources):
    """Solve and hold every claim against the per-component reference:
    the rates; ``last_iterations``, ``last_component_solves`` and
    ``last_vectorized_solves`` over exactly the components that held a
    dirty flow; the partition; and every kept form (see
    :func:`_assert_forms_solve_exactly`)."""
    dirty = {f for cid in alloc._dirty for f in alloc._comp_flows[cid]}
    got = alloc.solve()
    want: dict[Flow, float] = {}
    iterations = solves = vectorized = 0
    parts = bruteforce_partition(live)
    for comp in parts:
        members = [f for f in live if f in comp]
        one: dict[str, int] = {}
        want.update(allocate_rates(members, resources, stats=one))
        if dirty & comp:
            iterations += one["iterations"]
            solves += 1
            vectorized += len(members) >= VECTOR_MIN_FLOWS
    assert got == want
    assert alloc.last_iterations == iterations
    assert alloc.last_component_solves == solves
    assert alloc.last_vectorized_solves == vectorized
    assert {frozenset(c) for c in alloc.components()} == parts
    _assert_forms_exact(alloc)
    _assert_forms_solve_exactly(alloc, resources)


@pytest.mark.parametrize("seed", range(8))
def test_allocator_large_component_index_fuzz(seed):
    """The lowered form kept for large components (their one index),
    through absorbs of shrunk large components, splits into three or more
    parts, shrinking below the cutoff and regrowing past it, and random
    churn.  After every operation each kept form equals one lowered from
    scratch from its component's members; at every solve the partition
    is the brute-force one, and the rates and iteration counts equal the
    per-component reference's."""
    rng = random.Random(8000 + seed)
    islands = [[f"i{k}r{j}" for j in range(6)] for k in range(4)]
    bridges = ["b01", "b12", "b23"]
    resources = {}
    for name in [n for isl in islands for n in isl] + bridges:
        resources[name] = Resource(
            name=name,
            capacity=rng.choice([20.0, 40.0, 125.0]),
            concurrency_penalty=rng.choice([0.0, 0.02, 0.1]),
        )
    auto = TableAllocator()
    for name in resources:
        auto.register(name, resources[name])
    live: list[Flow] = []
    of_island: dict[Flow, int] = {}

    def add(f, k=None):
        live.append(f)
        if k is not None:
            of_island[f] = k
        auto.add(f)
        _assert_forms_exact(auto)

    def remove(f):
        live.remove(f)
        of_island.pop(f, None)
        auto.remove(f)
        _assert_forms_exact(auto)

    def grow(k, n):
        for _ in range(n):
            add(_island_flow(rng, islands[k]), k)

    def check():
        _checked_solve(auto, live, resources)

    def bridge(a, b, name):
        f = _island_flow(rng, islands[a], name)
        f = Flow(size=1.0, path=(*f.path, rng.choice(islands[b])), rate_cap=f.rate_cap)
        add(f)
        return f

    for k, isl in enumerate(islands):
        for a, b in zip(isl, isl[1:]):
            add(Flow(size=1.0, path=(a, b), rate_cap=4.0))
        grow(k, VECTOR_MIN_FLOWS)
    check()
    # Each island's first numpy-tier solve lowers it.
    assert len(auto._forms) == 4
    # A remove leaves probes; the next re-partition proves each island
    # whole from them and keeps its form.
    for k in range(4):
        remove(rng.choice([f for f in live if of_island.get(f) == k]))
    assert all(form.probes for form in auto._forms.values())
    check()
    assert len(auto._forms) == 4

    # Absorbing a shrunk large component drops both forms: the
    # survivor's probes would not cover the absorbed one's pieces.
    remove(rng.choice([f for f in live if of_island.get(f) == 0]))
    links = [bridge(0, 1, "b01")]
    assert len(auto._forms) == 2
    check()
    # Absorbing clean components enters their members into the form.
    remove(rng.choice([f for f in live if of_island.get(f) == 1]))
    check()
    assert len(auto._forms) == 3
    links.append(bridge(1, 2, "b12"))
    links.append(bridge(2, 3, "b23"))
    assert len(auto._forms) == 1
    check()
    # Churn inside the merged component: re-partitions prove it whole
    # through the form's rows.
    for _ in range(30):
        if rng.random() < 0.5:
            remove(rng.choice([f for f in live if f in of_island]))
        else:
            grow(rng.randrange(4), 1)
        if rng.random() < 0.5:
            check()
    check()
    # Dropping the bridges splits it four ways (some islands may split
    # further once churn removed part of their spine).
    for f in links:
        remove(f)
    check()
    assert len(auto.components()) >= 4

    # Shrink island 2 below the cutoff, then regrow it past it.
    mine = [f for f in live if of_island.get(f) == 2]
    for f in mine[: len(mine) - VECTOR_MIN_FLOWS // 2]:
        remove(f)
    check()
    grow(2, VECTOR_MIN_FLOWS)
    check()
    remove(rng.choice([f for f in live if of_island.get(f) == 2]))
    check()

    # Random churn, bridges included, solving at random points.
    for _ in range(150):
        u = rng.random()
        if u < 0.1:
            a = rng.randrange(3)
            bridge(a, a + 1, bridges[a])
        elif u < 0.55 and live:
            remove(rng.choice(live))
        else:
            grow(rng.randrange(4), 1)
        if rng.random() < 0.3:
            check()
    check()
    _assert_fresh_solve_matches(live, resources)


@pytest.mark.parametrize("seed", range(6))
def test_allocator_form_churn_differential(seed):
    """Kept forms against from-scratch lowerings through scripted and
    seeded churn: rows that empty and are re-entered through another
    component, a form re-lowered once its inert rows outnumber its live
    ones, absorbs in both directions, and components crossing the
    cutoff both ways, with capped and uncapped members.  Every solve is
    checked by :func:`_checked_solve`: rates and ``last_iterations``
    equal both a fresh lowering's and ``allocate_rates``'."""
    rng = random.Random(9100 + seed)
    spine = [f"s{j}" for j in range(6)]
    leaves = [f"l{j}" for j in range(40)]
    other = [f"o{j}" for j in range(6)]
    resources = {
        name: Resource(
            name=name,
            capacity=rng.choice([20.0, 40.0, 125.0]),
            concurrency_penalty=rng.choice([0.0, 0.02, 0.1, 1.0]),
        )
        for name in spine + leaves + other
    }
    auto = TableAllocator()
    for name, r in resources.items():
        auto.register(name, r)
    live: list[Flow] = []

    def add(*path, cap=None):
        f = Flow(size=1.0, path=path, rate_cap=cap)
        live.append(f)
        auto.add(f)
        _assert_forms_exact(auto)
        return f

    def remove(f):
        live.remove(f)
        auto.remove(f)
        _assert_forms_exact(auto)

    def check():
        _checked_solve(auto, live, resources)

    def cap():
        return rng.choice([None, None, 4.0, 4.0, 1.5])

    def form_of(name):
        return auto._forms[auto._res_comp[name]]

    # A large component: a spine plus one flow per leaf resource.
    for j in range(VECTOR_MIN_FLOWS):
        add(spine[j % 5], spine[j % 5 + 1], cap=cap())
    leaf_flows = [add(rng.choice(spine), leaf, cap=cap()) for leaf in leaves]
    check()
    form = form_of("s0")
    row_of_l0 = form.row["l0"]

    # Empty the rows of l0 and l1: they stay in the form, inert.
    remove(leaf_flows[0])
    remove(leaf_flows[1])
    check()
    assert form_of("s0") is form
    assert form.users[row_of_l0] == {}
    assert form.cols[2, row_of_l0] == 0.0

    # l0 is re-entered through another component, which the large one
    # absorbs: its old row comes back to life.
    side = [add("l0", "o0", cap=cap()), add("o0", "o1", cap=cap())]
    check()
    assert auto._res_comp["l0"] != auto._res_comp["s0"]
    side.append(add("o1", "s2", cap=cap()))
    assert form_of("l0") is form
    assert form.row["l0"] == row_of_l0
    assert form.cols[2, row_of_l0] == 1.0
    check()

    # Drop most leaves: once inert rows outnumber live ones, the next
    # re-partition re-lowers the form without them.
    for f in leaf_flows[2:36]:
        remove(f)
    check()
    assert form_of("s0") is not form
    assert all(form_of("s0").users)

    # The other side outgrows the spine's component and absorbs it:
    # the spine's members enter the side component's form.
    for f in side:
        remove(f)
    for j in range(3 * VECTOR_MIN_FLOWS // 2):
        add(other[j % 5], other[j % 5 + 1], cap=cap())
    check()
    big = form_of("o0")
    assert len(auto._comp_flows[auto._res_comp["o0"]]) > len(
        auto._comp_flows[auto._res_comp["s0"]]
    )
    add("o3", "s4", cap=cap())
    assert form_of("s0") is big
    check()

    # Seeded churn: shrink-and-grow phases push the largest component
    # below the cutoff and back past it, with random paths bridging the
    # two sides.
    names = spine + leaves[:8] + other

    def large():
        return max(map(len, bruteforce_partition(live)), default=0) >= VECTOR_MIN_FLOWS

    for phase in range(6):
        shrinking = phase % 2 == 0
        p_add = 0.15 if shrinking else 0.85
        steps = 0
        while steps < 40 or large() == shrinking:
            if live and rng.random() > p_add:
                remove(rng.choice(live))
            else:
                add(*rng.sample(names, rng.randint(1, 3)), cap=cap())
            steps += 1
            if rng.random() < 0.3:
                check()
        check()
    _assert_fresh_solve_matches(live, resources)


def test_allocator_counts_vectorized_solves():
    alloc = TableAllocator()
    alloc.register("shared", Resource(name="shared", capacity=100.0,
                                      concurrency_penalty=0.1))
    for _ in range(VECTOR_MIN_FLOWS):
        alloc.add(Flow(size=1.0, path=("shared",)))
    alloc.solve()
    assert alloc.last_vectorized_solves == 1
