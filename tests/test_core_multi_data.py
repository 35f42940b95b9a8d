"""Tests for Algorithm 1 — multi-data matching (§IV-C)."""

import numpy as np
import pytest

from repro.core.assignment import equal_quotas, locality_fraction
from repro.core.bipartite import ProcessPlacement, build_locality_graph, graph_from_filesystem
from repro.core.baselines import rank_interval_assignment
from repro.core.multi_data import optimize_multi_data
from repro.core.tasks import Task, tasks_from_datasets
from repro.dfs import ClusterSpec, DistributedFileSystem
from repro.dfs.chunk import MB, ChunkId
from repro.draws import bounded_draws, uint32_words
from repro.workloads import multi_input_datasets


def _graph_from_weights(weights, num_tasks, num_nodes):
    """Build a graph with prescribed (rank, task) co-located byte weights.

    Each positive weight becomes a dedicated single-replica chunk on the
    rank's node, so edge weights equal the prescription exactly.
    """
    tasks_inputs: dict[int, list[ChunkId]] = {t: [] for t in range(num_tasks)}
    locations = {}
    sizes = {}
    for (rank, task), w in weights.items():
        cid = ChunkId(f"w-{rank}-{task}", 0)
        tasks_inputs[task].append(cid)
        locations[cid] = (rank,)
        sizes[cid] = w
    # Tasks with no data anywhere still need an input chunk; park it on a
    # node outside the process set if possible, else make it tiny on node 0.
    tasks = []
    for t in range(num_tasks):
        if not tasks_inputs[t]:
            cid = ChunkId(f"pad-{t}", 0)
            locations[cid] = (num_nodes - 1,)
            sizes[cid] = 1
            tasks_inputs[t].append(cid)
        tasks.append(Task(t, tuple(tasks_inputs[t])))
    return build_locality_graph(
        tasks, locations, sizes, ProcessPlacement.one_per_node(num_nodes)
    )


class TestPaperExample:
    def test_figure6_reassignment(self):
        """Figure 6(b): t5 initially matched to p2 is stolen by p3.

        Weights (MB) follow Figure 6(a)'s table for t4/t5 and p0..p3.
        """
        weights = {
            (0, 4): 40 * MB,
            (1, 4): 10 * MB,
            (2, 5): 10 * MB,
            (3, 5): 30 * MB,
            (2, 4): 20 * MB,
            (0, 5): 10 * MB,
        }
        graph = _graph_from_weights(weights, num_tasks=6, num_nodes=4)
        result = optimize_multi_data(graph)
        owner = result.assignment.process_of()
        assert owner[4] == 0  # highest matching value 40 MB
        assert owner[5] == 3  # stolen by p3 (30 MB > p2's 10 MB)
        assert result.assignment.num_tasks == 6


class TestInvariants:
    def test_all_tasks_assigned_exact_quota(self):
        weights = {(r, t): (r + t + 1) * MB for r in range(3) for t in range(6)}
        graph = _graph_from_weights(weights, 6, 3)
        result = optimize_multi_data(graph)
        result.assignment.validate(6, quotas=equal_quotas(6, 3), exact_quota=True)

    def test_local_bytes_reported_correctly(self):
        weights = {(0, 0): 5 * MB, (1, 1): 7 * MB}
        graph = _graph_from_weights(weights, 2, 2)
        result = optimize_multi_data(graph)
        owner = result.assignment.process_of()
        expected = sum(graph.edge_weight(owner[t], t) for t in range(2))
        assert result.local_bytes == expected
        assert result.local_bytes == 12 * MB

    def test_no_edges_still_assigns_everything(self):
        graph = _graph_from_weights({}, num_tasks=4, num_nodes=3)
        # All pad chunks live on node 2, so ranks 0/1 have no locality.
        result = optimize_multi_data(graph)
        result.assignment.validate(4, quotas=equal_quotas(4, 3))

    def test_quota_sum_must_cover_tasks(self):
        graph = _graph_from_weights({(0, 0): MB}, 2, 2)
        with pytest.raises(ValueError, match="total quota"):
            optimize_multi_data(graph, quotas=[1, 0])

    def test_uneven_quotas(self):
        weights = {(r, t): MB for r in range(2) for t in range(4)}
        graph = _graph_from_weights(weights, 4, 2)
        result = optimize_multi_data(graph, quotas=[3, 1])
        assert len(result.assignment.tasks_of[0]) == 3
        assert len(result.assignment.tasks_of[1]) == 1

    def test_reassignment_counter(self):
        weights = {
            (0, 4): 40 * MB,
            (2, 5): 10 * MB,
            (3, 5): 30 * MB,
        }
        graph = _graph_from_weights(weights, 6, 4)
        result = optimize_multi_data(graph)
        assert result.reassignments >= 0
        assert result.proposals >= 6  # at least one proposal per task

    def test_deterministic(self):
        weights = {(r, t): ((r * 7 + t * 3) % 5 + 1) * MB
                   for r in range(4) for t in range(8)}
        graph = _graph_from_weights(weights, 8, 4)
        a = optimize_multi_data(graph).assignment.tasks_of
        b = optimize_multi_data(graph).assignment.tasks_of
        assert a == b


class TestQuality:
    @pytest.fixture
    def genome_graph(self):
        spec = ClusterSpec.homogeneous(16)
        fs = DistributedFileSystem(spec, seed=13)
        datasets = multi_input_datasets(64)
        for ds in datasets:
            fs.put_dataset(ds)
        placement = ProcessPlacement.one_per_node(16)
        tasks = tasks_from_datasets(datasets)
        return graph_from_filesystem(fs, tasks, placement)

    def test_beats_rank_interval(self, genome_graph):
        result = optimize_multi_data(genome_graph)
        base = rank_interval_assignment(64, 16)
        assert locality_fraction(result.assignment, genome_graph) > locality_fraction(
            base, genome_graph
        )

    def test_beats_random_assignments(self, genome_graph):
        """Algorithm 1 should dominate locality-oblivious random deals."""
        from repro.core.baselines import random_assignment

        result = optimize_multi_data(genome_graph)
        opass_local = locality_fraction(result.assignment, genome_graph)
        for seed in range(5):
            rand = random_assignment(64, 16, seed=seed)
            assert opass_local > locality_fraction(rand, genome_graph)

    def test_steal_only_improves(self, genome_graph):
        """Every reassignment strictly increased the stolen task's local
        bytes, so total local bytes is at least the no-steal greedy's."""
        full = optimize_multi_data(genome_graph)
        assert full.local_bytes > 0
        # Running with quotas so large no process is ever deficient after
        # round one effectively disables stealing pressure differences;
        # the constrained run must not be better than the relaxed one by
        # definition of the objective... both must remain valid anyway.
        relaxed = optimize_multi_data(genome_graph, quotas=[64] * 16)
        assert relaxed.assignment.num_tasks == 64


class TestSelectionOrder:
    def test_random_order_deterministic_by_seed(self):
        weights = {(r, t): ((r * 5 + t * 3) % 7 + 1) * MB
                   for r in range(4) for t in range(12)}
        graph = _graph_from_weights(weights, 12, 4)
        a = optimize_multi_data(graph, seed=5).assignment.tasks_of
        b = optimize_multi_data(graph, seed=5).assignment.tasks_of
        assert a == b


class TestDrawReplay:
    """``bounded_draws`` replays ``Generator.integers(k)`` from raw words."""

    @staticmethod
    def _bounds(seed, count):
        """A mix of k = 1, small k and k in (2**31, 2**32]."""
        pick = np.random.default_rng(seed + 1000)
        bounds = []
        for _ in range(count):
            family = int(pick.integers(3))
            if family == 0:
                bounds.append(1)
            elif family == 1:
                bounds.append(int(pick.integers(2, 300)))
            else:
                bounds.append(int(pick.integers(2**31 + 1, 2**32 + 1)))
        return bounds

    @pytest.mark.parametrize("seed", [0, 1, 17, 424242])
    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_matches_generator_integers(self, seed, block):
        # 3000 draws refill a block of 64 words ~30 times, of 1 word ~1500.
        bounds = self._bounds(seed, 3000)
        rng = np.random.default_rng(seed)
        want = [int(rng.integers(k)) for k in bounds]
        draw = bounded_draws(uint32_words(np.random.default_rng(seed).bit_generator, block))
        assert [draw(k) for k in bounds] == want

    def test_rejection_fires_above_two_to_the_31(self):
        k = 2**31 + 1  # about half of all 32-bit outputs are rejected
        raw = np.random.default_rng(5).bit_generator.random_raw(100).tolist()
        halves = [h for word in raw for h in (word & 0xFFFFFFFF, word >> 32)]
        unrejected = [(u * k) >> 32 for u in halves[:100]]
        rng = np.random.default_rng(5)
        want = [int(rng.integers(k)) for _ in range(100)]
        draw = bounded_draws(uint32_words(np.random.default_rng(5).bit_generator, 2))
        assert [draw(k) for _ in range(100)] == want
        assert want != unrejected

    def test_bound_one_consumes_nothing(self):
        draw = bounded_draws(uint32_words(np.random.default_rng(8).bit_generator, 1))
        rng = np.random.default_rng(8)
        assert [draw(1) for _ in range(5)] == [0] * 5
        assert draw(1000) == int(rng.integers(1000))
