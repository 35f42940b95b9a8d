"""Property-based tests for the max-flow solvers.

Invariants checked on random graphs:
* both solvers compute the same flow value, matching networkx;
* flow conservation at every internal vertex;
* capacity constraints on every edge;
* max-flow equals min-cut capacity (strong duality).
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flownetwork import FlowNetwork


@st.composite
def flow_graphs(draw):
    """A random digraph with integer capacities plus (source, sink)."""
    n = draw(st.integers(min_value=2, max_value=10))
    max_edges = n * (n - 1)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=0, max_size=max_edges, unique=True)
    )
    caps = draw(
        st.lists(
            st.integers(min_value=0, max_value=30),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    return n, list(zip(chosen, caps))


def _build(n, edges):
    net = FlowNetwork(n)
    handles = []
    for (u, v), c in edges:
        handles.append(((u, v), net.add_edge(u, v, c)))
    return net, handles


@given(flow_graphs())
@settings(max_examples=60, deadline=None)
def test_solvers_agree_with_networkx(graph):
    n, edges = graph
    net, _ = _build(n, edges)
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    for (u, v), c in edges:
        if g.has_edge(u, v):
            g[u][v]["capacity"] += c
        else:
            g.add_edge(u, v, capacity=c)
    expected = nx.maximum_flow_value(g, 0, n - 1)
    assert net.dinic(0, n - 1) == expected
    net.reset()
    assert net.edmonds_karp(0, n - 1) == expected


@given(flow_graphs())
@settings(max_examples=60, deadline=None)
def test_flow_conservation_and_capacity(graph):
    n, edges = graph
    net, handles = _build(n, edges)
    total = net.dinic(0, n - 1)
    net_out = [0] * n
    for (u, v), handle in handles:
        f = net.flow_on(handle)
        assert 0 <= f  # no negative flow (capacity: test_per_edge_capacity_respected)
        net_out[u] += f
        net_out[v] -= f
    # Conservation: zero at internal vertices; +total at source, -total at sink.
    assert net_out[0] == total
    assert net_out[n - 1] == -total
    for v in range(1, n - 1):
        assert net_out[v] == 0


@given(flow_graphs())
@settings(max_examples=60, deadline=None)
def test_per_edge_capacity_respected(graph):
    n, edges = graph
    net, handles = _build(n, edges)
    net.dinic(0, n - 1)
    for i, ((u, v), handle) in enumerate(handles):
        cap = edges[i][1]
        assert net.flow_on(handle) <= cap


@given(flow_graphs())
@settings(max_examples=40, deadline=None)
def test_max_flow_equals_min_cut(graph):
    n, edges = graph
    net, handles = _build(n, edges)
    total = net.dinic(0, n - 1)
    reachable = net.min_cut_reachable(0)
    cut_capacity = sum(
        c for (u, v), c in edges if u in reachable and v not in reachable
    )
    assert total == cut_capacity
