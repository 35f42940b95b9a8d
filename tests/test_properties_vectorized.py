"""Differential fuzz: flat/vectorized water-filling kernels vs the reference.

The kernels in ``repro.simulate.vectorized`` claim *bit-for-bit* equality
with ``allocate_rates`` run on the same component — not approximate
equality.  Every test here asserts ``==`` on the raw floats (and equality
of iteration counts), across the regimes where float rounding could
plausibly diverge: rate-capped flows frozen in the 1e-12 cap window,
components engineered to produce float ties, singleton components (the
closed-form path), resources at the concurrency threshold, and sizes
straddling the scalar/numpy dispatch cutoff.

A second group pins the allocator-level contract: a
``ComponentAllocator(kernel="auto")`` tracks ``kernel="reference"``
exactly through add/remove churn.
"""

from __future__ import annotations

import random

import pytest

from repro.simulate.components import ComponentAllocator
from repro.simulate.flows import Flow, allocate_rates
from repro.simulate.resources import Resource
from repro.simulate.vectorized import (
    VECTOR_MIN_FLOWS,
    id_table,
    res_entry,
    solve_component,
    solve_large,
    solve_single,
)

from .test_properties_components import bruteforce_partition


def _res_caps(resources):
    return {name: res_entry(r) for name, r in resources.items()}


def _kernel_rates(flows, resources):
    """Rates + iterations via the same dispatch ComponentAllocator uses."""
    return solve_component(flows, _res_caps(resources))


def _reference_rates(flows, resources):
    stats: dict[str, int] = {}
    rates = allocate_rates(flows, resources, stats=stats)
    return [rates[f] for f in flows], stats["iterations"]


def _shuffled_id_table(resources, seed):
    """Resource ids in a shuffled order, as an allocator numbers resources
    registered in that order."""
    names = list(resources)
    random.Random(seed).shuffle(names)
    return id_table({n: res_entry(resources[n]) for n in names})


def _assert_identical(flows, resources):
    got, got_iters = _kernel_rates(flows, resources)
    want, want_iters = _reference_rates(flows, resources)
    assert got == want
    assert got_iters == want_iters
    if len(flows) > 1:
        # The numpy kernel must agree at every size, not only where the
        # dispatch sends it, and whatever order the resource ids take.
        res_id, cap_tbl, pen_tbl = _shuffled_id_table(resources, len(flows))
        assert solve_large(flows, res_id, cap_tbl, pen_tbl) == (want, want_iters)


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
    """Two-flow components: shared, disjoint, capped, tied, degenerate."""
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


@pytest.mark.parametrize("seed", range(10))
def test_allocator_auto_vs_reference_kernel_churn(seed):
    """Auto-kernel allocator == reference-kernel allocator through churn."""
    rng = random.Random(1000 + seed)
    resources = _random_resources(rng, 12)
    names = list(resources)
    auto = ComponentAllocator()
    ref = ComponentAllocator(kernel="reference")
    for name, r in resources.items():
        auto.register(name, r)
        ref.register(name, r)
    live: list[Flow] = []
    for step in range(120):
        if live and rng.random() < 0.35:
            f = live.pop(rng.randrange(len(live)))
            auto.remove(f)
            ref.remove(f)
        else:
            path = tuple(rng.sample(names, rng.randint(1, 3)))
            cap = rng.choice([None, None, 1.0, 60e6])
            f = Flow(size=1.0, path=path, rate_cap=cap)
            live.append(f)
            auto.add(f)
            ref.add(f)
        if rng.random() < 0.5:
            got = auto.solve()
            want = ref.solve()
            assert got == want
            assert auto.last_iterations == ref.last_iterations
            assert auto.last_component_solves == ref.last_component_solves
    assert auto.solve() == ref.solve()


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
    auto = ComponentAllocator()
    ref = ComponentAllocator(kernel="reference")
    for name in order:
        auto.register(name, resources[name])
        ref.register(name, resources[name])

    live: list[Flow] = []

    def add(f):
        live.append(f)
        auto.add(f)
        ref.add(f)

    def remove(f):
        live.remove(f)
        auto.remove(f)
        ref.remove(f)

    def check():
        assert auto.solve() == ref.solve()
        assert auto.last_iterations == ref.last_iterations
        assert auto.last_component_solves == ref.last_component_solves
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

    # A large solve alone never touches the memo.
    memo_len = len(auto._memo)
    add(_island_flow(rng, islands[0]))
    check()
    assert auto.last_vectorized_solves == auto.last_component_solves == 1
    assert len(auto._memo) == memo_len

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


def test_allocator_counts_vectorized_solves():
    alloc = ComponentAllocator()
    alloc.register("shared", Resource(name="shared", capacity=100.0,
                                      concurrency_penalty=0.1))
    for _ in range(VECTOR_MIN_FLOWS):
        alloc.add(Flow(size=1.0, path=("shared",)))
    alloc.solve()
    assert alloc.last_vectorized_solves == 1


def test_allocator_rejects_unknown_kernel():
    with pytest.raises(ValueError):
        ComponentAllocator(kernel="simd")
