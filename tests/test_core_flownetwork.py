"""Tests for the max-flow solvers, cross-checked against networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.core.flownetwork import FlowNetwork


def _to_networkx(net: FlowNetwork) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(range(net.num_vertices))
    for u, edges in enumerate(net.adj):
        for e in edges:
            if e.original_cap > 0:
                # Parallel edges collapse by summing capacity.
                if g.has_edge(u, e.to):
                    g[u][e.to]["capacity"] += e.original_cap
                else:
                    g.add_edge(u, e.to, capacity=e.original_cap)
    return g


def _random_network(rng: np.random.Generator, n: int, p: float) -> FlowNetwork:
    net = FlowNetwork(n)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                net.add_edge(u, v, int(rng.integers(1, 20)))
    return net


class TestBasics:
    def test_single_edge(self):
        net = FlowNetwork(2)
        net.add_edge(0, 1, 7)
        assert net.dinic(0, 1) == 7

    def test_series_bottleneck(self):
        net = FlowNetwork(3)
        net.add_edge(0, 1, 10)
        net.add_edge(1, 2, 4)
        assert net.edmonds_karp(0, 2) == 4

    def test_parallel_paths_sum(self):
        net = FlowNetwork(4)
        net.add_edge(0, 1, 3)
        net.add_edge(1, 3, 3)
        net.add_edge(0, 2, 5)
        net.add_edge(2, 3, 5)
        assert net.dinic(0, 3) == 8

    def test_disconnected_zero(self):
        net = FlowNetwork(4)
        net.add_edge(0, 1, 3)
        net.add_edge(2, 3, 3)
        assert net.dinic(0, 3) == 0

    def test_cancellation_path(self):
        """The classic case needing a flow-cancelling augmenting path."""
        net = FlowNetwork(4)
        net.add_edge(0, 1, 1)
        net.add_edge(0, 2, 1)
        net.add_edge(1, 2, 1)
        net.add_edge(1, 3, 1)
        net.add_edge(2, 3, 1)
        assert net.dinic(0, 3) == 2

    def test_zero_capacity_edge(self):
        net = FlowNetwork(2)
        net.add_edge(0, 1, 0)
        assert net.dinic(0, 1) == 0


class TestValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            FlowNetwork(2).add_edge(1, 1, 5)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlowNetwork(2).add_edge(0, 1, -1)

    def test_float_capacity_rejected(self):
        with pytest.raises(TypeError):
            FlowNetwork(2).add_edge(0, 1, 1.5)

    def test_vertex_range(self):
        with pytest.raises(ValueError):
            FlowNetwork(2).add_edge(0, 5, 1)
        with pytest.raises(ValueError):
            FlowNetwork(0)

    def test_same_source_sink(self):
        net = FlowNetwork(2)
        net.add_edge(0, 1, 1)
        with pytest.raises(ValueError):
            net.dinic(0, 0)

    def test_unknown_algorithm(self):
        net = FlowNetwork(2)
        net.add_edge(0, 1, 1)
        with pytest.raises(ValueError):
            net.max_flow(0, 1, algorithm="simplex")


class TestFlowQueries:
    def test_flow_on_edges(self):
        net = FlowNetwork(3)
        h1 = net.add_edge(0, 1, 10)
        h2 = net.add_edge(1, 2, 4)
        net.dinic(0, 2)
        assert net.flow_on(h1) == 4
        assert net.flow_on(h2) == 4

    def test_reset_restores_capacity(self):
        net = FlowNetwork(2)
        h = net.add_edge(0, 1, 5)
        assert net.dinic(0, 1) == 5
        net.reset()
        assert net.flow_on(h) == 0
        assert net.edmonds_karp(0, 1) == 5

    def test_min_cut_partition(self):
        net = FlowNetwork(3)
        net.add_edge(0, 1, 10)
        net.add_edge(1, 2, 4)
        net.dinic(0, 2)
        reachable = net.min_cut_reachable(0)
        assert 0 in reachable
        assert 2 not in reachable
        # Cut capacity equals max flow (here the 1→2 edge).
        assert reachable == {0, 1}


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        net = _random_network(rng, n=12, p=0.3)
        g = _to_networkx(net)
        expected = nx.maximum_flow_value(g, 0, 11) if g.number_of_edges() else 0
        assert net.dinic(0, 11) == expected
        net.reset()
        assert net.edmonds_karp(0, 11) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_bipartite_matching_graphs(self, seed):
        """The exact network shape single_data builds: s→P→F→t, unit F caps."""
        rng = np.random.default_rng(100 + seed)
        m, n = 5, 15
        net = FlowNetwork(m + n + 2)
        s, t = 0, m + n + 1
        g = nx.DiGraph()
        for r in range(m):
            net.add_edge(s, 1 + r, 3)
            g.add_edge(s, 1 + r, capacity=3)
        for task in range(n):
            net.add_edge(1 + m + task, t, 1)
            g.add_edge(1 + m + task, t, capacity=1)
            for r in rng.choice(m, size=2, replace=False):
                net.add_edge(1 + int(r), 1 + m + task, 1)
                g.add_edge(1 + int(r), 1 + m + task, capacity=1)
        expected = nx.maximum_flow_value(g, s, t)
        assert net.dinic(s, t) == expected

    def test_dinic_and_ek_agree_on_larger_graph(self):
        rng = np.random.default_rng(77)
        net1 = _random_network(rng, n=30, p=0.15)
        rng = np.random.default_rng(77)
        net2 = _random_network(rng, n=30, p=0.15)
        assert net1.dinic(0, 29) == net2.edmonds_karp(0, 29)

    def test_large_bipartite_dinic_matches_edmonds_karp(self):
        # The single-data shape at 20 ranks and 600 tasks (622 vertices):
        # Dinic against Edmonds–Karp as the oracle.
        m, n = 20, 600
        net_d = FlowNetwork(m + n + 2)
        net_e = FlowNetwork(m + n + 2)
        s, t = 0, m + n + 1
        for net in (net_d, net_e):
            rng = np.random.default_rng(7)
            for r in range(m):
                net.add_edge(s, 1 + r, 30)
            for task in range(n):
                net.add_edge(1 + m + task, t, 1)
                for r in rng.choice(m, size=2, replace=False):
                    net.add_edge(1 + int(r), 1 + m + task, 1)
        assert net_d.dinic(s, t) == net_e.edmonds_karp(s, t)
