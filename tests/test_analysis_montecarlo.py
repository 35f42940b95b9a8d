"""Monte-Carlo validation: simulation agrees with the closed forms."""

import numpy as np
import pytest

from repro.analysis import (
    cdf_local_chunks,
    empirical_cdf,
    empirical_local_chunks,
    empirical_nodes_serving,
    expected_nodes_serving_at_most,
    sample_placement,
    simulate_serve_counts,
)


class TestSamplePlacement:
    def test_shape_and_distinctness(self, rng):
        p = sample_placement(100, 3, 16, rng)
        assert p.shape == (100, 3)
        for row in p:
            assert len(set(row.tolist())) == 3
        assert p.min() >= 0 and p.max() < 16

    def test_rows_are_successive_choice_calls(self):
        for seed in range(20):
            want_rng, got_rng = (np.random.default_rng(seed) for _ in range(2))
            want = [want_rng.choice(16, 3, replace=False) for _ in range(50)]
            assert np.array_equal(sample_placement(50, 3, 16, got_rng), want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_insufficient_nodes(self, rng):
        with pytest.raises(ValueError):
            sample_placement(10, 5, 3, rng)


class TestLocalityAgreement:
    def test_empirical_matches_binomial_cdf(self, rng):
        samples = empirical_local_chunks(512, 3, 128, trials=4000, rng=rng)
        for k in (6, 10, 14):
            emp = empirical_cdf(samples, k)
            model = float(cdf_local_chunks(k, 512, 3, 128))
            assert emp == pytest.approx(model, abs=0.03)

    def test_empirical_cdf_vector(self, rng):
        samples = np.array([1, 2, 3, 4])
        cdf = empirical_cdf(samples, np.array([0, 2, 4]))
        assert np.allclose(cdf, [0.0, 0.5, 1.0])


class TestServeAgreement:
    def test_served_counts_sum_to_n(self, rng):
        sample = simulate_serve_counts(512, 3, 128, rng)
        assert sample.served.sum() == 512
        assert sample.stored.sum() == 512 * 3

    def test_empirical_matches_thinned_binomial(self, rng):
        trials = 300
        at_most_1 = 0.0
        for _ in range(trials):
            s = simulate_serve_counts(512, 3, 128, rng)
            at_most_1 += float(np.sum(s.served <= 1))
        model = expected_nodes_serving_at_most(1, 512, 3, 128)
        assert at_most_1 / trials == pytest.approx(model, rel=0.15)

    def test_empirical_nodes_serving_summary(self, rng):
        out = empirical_nodes_serving(512, 3, 128, trials=100, rng=rng)
        assert set(out) == {"nodes_at_most_1", "nodes_more_than_8", "mean_max_served"}
        # Imbalance: the hottest node serves far above the mean of 4.
        assert out["mean_max_served"] > 8.0
