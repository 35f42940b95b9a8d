"""Unit tests for replica placement policies."""

import numpy as np
import pytest

from repro.dfs.chunk import MB, uniform_dataset
from repro.dfs.cluster import ClusterSpec
from repro.dfs.placement import (
    HdfsWriterLocalPlacement,
    RandomPlacement,
    SkewedPlacement,
)


#: ``RandomPlacement`` of 40 chunks on 12 nodes, r = 3, seed 2015.
PINNED_LAYOUT = [
    (5, 7, 11), (7, 10, 11), (0, 1, 11), (3, 8, 11), (4, 8, 9), (0, 4, 7),
    (2, 6, 7), (4, 5, 8), (6, 10, 11), (1, 3, 5), (0, 4, 8), (0, 4, 7),
    (1, 6, 9), (5, 6, 10), (3, 4, 8), (4, 5, 8), (3, 8, 9), (1, 5, 6),
    (4, 5, 7), (3, 8, 9), (1, 4, 8), (0, 2, 4), (0, 2, 10), (0, 5, 11),
    (4, 8, 10), (1, 4, 7), (3, 8, 11), (3, 4, 11), (0, 1, 3), (1, 8, 9),
    (0, 2, 9), (0, 1, 7), (4, 5, 8), (3, 6, 11), (4, 6, 8), (0, 5, 8),
    (0, 5, 8), (1, 2, 10), (5, 10, 11), (7, 8, 11),
]


@pytest.fixture
def spec():
    return ClusterSpec.homogeneous(12, nodes_per_rack=4)


@pytest.fixture
def dataset():
    return uniform_dataset("d", 40, chunk_size=MB)


class TestRandomPlacement:
    def test_replicas_distinct_nodes(self, spec, dataset, rng):
        layout = RandomPlacement().place_dataset(
            dataset, spec, list(range(12)), 3, rng
        )
        for nodes in layout.values():
            assert len(set(nodes)) == 3

    def test_every_chunk_placed(self, spec, dataset, rng):
        layout = RandomPlacement().place_dataset(
            dataset, spec, list(range(12)), 3, rng
        )
        assert set(layout) == {c.id for c in dataset.iter_chunks()}

    def test_replication_clamped_to_candidates(self, spec, dataset, rng):
        layout = RandomPlacement().place_dataset(dataset, spec, [0, 1], 3, rng)
        for nodes in layout.values():
            assert len(nodes) == 2

    def test_respects_candidate_subset(self, spec, dataset, rng):
        candidates = [2, 5, 7, 9]
        layout = RandomPlacement().place_dataset(dataset, spec, candidates, 3, rng)
        for nodes in layout.values():
            assert set(nodes) <= set(candidates)

    def test_marginal_probability_r_over_m(self, spec, rng):
        """Each node holds a given chunk with probability ~ r/m (paper §III)."""
        ds = uniform_dataset("big", 4000, chunk_size=MB)
        layout = RandomPlacement().place_dataset(ds, spec, list(range(12)), 3, rng)
        counts = np.zeros(12)
        for nodes in layout.values():
            for n in nodes:
                counts[n] += 1
        frac = counts / 4000
        assert np.allclose(frac, 3 / 12, atol=0.03)

    def test_zero_replication_rejected(self, spec, dataset, rng):
        with pytest.raises(ValueError):
            RandomPlacement().place_dataset(dataset, spec, list(range(12)), 0, rng)

    def test_empty_candidates_rejected(self, spec, dataset, rng):
        with pytest.raises(ValueError):
            RandomPlacement().place_dataset(dataset, spec, [], 3, rng)

    def test_pinned_layout(self, spec, dataset):
        """Seed 2015's layout and the draws after it, as recorded from the
        per-chunk ``rng.choice`` placement."""
        rng = np.random.default_rng(2015)
        layout = RandomPlacement().place_dataset(dataset, spec, list(range(12)), 3, rng)
        assert [layout[c.id] for c in dataset.iter_chunks()] == PINNED_LAYOUT
        pair = uniform_dataset("s", 6, chunk_size=MB)
        sub = RandomPlacement().place_dataset(pair, spec, [3, 8], 3, rng)
        assert list(sub.values()) == [(3, 8)] * 6
        assert rng.integers(1000, size=5).tolist() == [420, 644, 353, 63, 508]

    @pytest.mark.parametrize(
        "candidates, replication",
        [(list(range(12)), 3), (list(range(12)), 1), ([2, 5, 7, 9], 3),
         ([2, 5, 7], 3), ([2, 5], 3), ([6], 3)],
    )
    @pytest.mark.parametrize("warmup", [0, 1])
    def test_dataset_equals_chunk_by_chunk(self, spec, dataset, candidates,
                                           replication, warmup):
        """One pass gives :meth:`place_chunk`'s layout and leaves ``rng``
        where the per-chunk calls leave it (replication above the
        candidate count is clamped)."""
        policy = RandomPlacement()
        for seed in range(20):
            want_rng, got_rng = (np.random.default_rng(seed) for _ in range(2))
            want_rng.integers(10, size=warmup)
            got_rng.integers(10, size=warmup)
            want = {
                c.id: policy.place_chunk(c, spec, candidates, replication, want_rng)
                for c in dataset.iter_chunks()
            }
            got = policy.place_dataset(dataset, spec, candidates, replication, got_rng)
            assert list(got.items()) == list(want.items())
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_mt19937_layout_unchanged(self, spec, dataset):
        policy = RandomPlacement()
        want_rng, got_rng = (np.random.Generator(np.random.MT19937(9)) for _ in range(2))
        want = [policy.place_chunk(c, spec, list(range(12)), 3, want_rng)
                for c in dataset.iter_chunks()]
        got = policy.place_dataset(dataset, spec, list(range(12)), 3, got_rng)
        assert list(got.values()) == want
        assert got_rng.integers(1 << 30) == want_rng.integers(1 << 30)


class TestHdfsWriterLocalPlacement:
    def test_first_replica_on_writer(self, spec, dataset, rng):
        layout = HdfsWriterLocalPlacement().place_dataset(
            dataset, spec, list(range(12)), 3, rng, writer_node=5
        )
        for nodes in layout.values():
            assert nodes[0] == 5

    def test_second_replica_other_rack(self, spec, dataset, rng):
        layout = HdfsWriterLocalPlacement().place_dataset(
            dataset, spec, list(range(12)), 3, rng, writer_node=0
        )
        for nodes in layout.values():
            assert spec.rack_of(nodes[1]) != spec.rack_of(nodes[0])

    def test_third_replica_same_rack_as_second(self, spec, dataset, rng):
        layout = HdfsWriterLocalPlacement().place_dataset(
            dataset, spec, list(range(12)), 3, rng, writer_node=0
        )
        for nodes in layout.values():
            assert spec.rack_of(nodes[2]) == spec.rack_of(nodes[1])

    def test_distinct_nodes(self, spec, dataset, rng):
        layout = HdfsWriterLocalPlacement().place_dataset(
            dataset, spec, list(range(12)), 3, rng, writer_node=3
        )
        for nodes in layout.values():
            assert len(set(nodes)) == 3

    def test_no_writer_falls_back_to_random_first(self, spec, dataset, rng):
        layout = HdfsWriterLocalPlacement().place_dataset(
            dataset, spec, list(range(12)), 3, rng
        )
        firsts = {nodes[0] for nodes in layout.values()}
        assert len(firsts) > 1  # not pinned to one node

    def test_single_rack_cluster(self, dataset, rng):
        flat = ClusterSpec.homogeneous(6)
        layout = HdfsWriterLocalPlacement().place_dataset(
            dataset, flat, list(range(6)), 3, rng, writer_node=2
        )
        for nodes in layout.values():
            assert len(set(nodes)) == 3
            assert nodes[0] == 2


class TestSkewedPlacement:
    def test_excluded_nodes_get_nothing(self, spec, dataset, rng):
        policy = SkewedPlacement(excluded_fraction=0.25)
        layout = policy.place_dataset(dataset, spec, list(range(12)), 3, rng)
        used = {n for nodes in layout.values() for n in nodes}
        # 25% of 12 = 3 highest-numbered nodes excluded.
        assert used <= set(range(9))

    def test_bias_skews_low_ids(self, spec, rng):
        ds = uniform_dataset("big", 2000, chunk_size=MB)
        policy = SkewedPlacement(excluded_fraction=0.0, bias=3.0)
        layout = policy.place_dataset(ds, spec, list(range(12)), 3, rng)
        counts = np.zeros(12)
        for nodes in layout.values():
            for n in nodes:
                counts[n] += 1
        assert counts[0] > counts[11] * 1.5

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SkewedPlacement(excluded_fraction=1.0)
        with pytest.raises(ValueError):
            SkewedPlacement(bias=-1)

    def test_all_excluded_falls_back(self, spec, dataset, rng):
        # With one candidate nothing can be excluded (eligible never empty).
        policy = SkewedPlacement(excluded_fraction=0.5)
        layout = policy.place_dataset(dataset, spec, [4], 3, rng)
        for nodes in layout.values():
            assert nodes == (4,)

    def test_replicas_distinct(self, spec, dataset, rng):
        layout = SkewedPlacement(excluded_fraction=0.25, bias=1.0).place_dataset(
            dataset, spec, list(range(12)), 3, rng
        )
        for nodes in layout.values():
            assert len(set(nodes)) == len(nodes) == 3
