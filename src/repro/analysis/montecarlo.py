"""Monte-Carlo cross-validation of the §III closed forms.

Simulates the paper's random model directly — random r-way placement plus
random task assignment and random remote-replica choice — with vectorised
numpy sampling, and returns empirical counterparts of the analytical
quantities.  Used by tests and by ``bench_fig3`` / ``bench_sec3`` to show
model and simulation agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..draws import choice_rows


def sample_placement(
    num_chunks: int,
    replication: int,
    num_nodes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample an (n, r) array of replica node ids, distinct per row.

    Row ``i`` is what the ``i``-th of ``num_chunks`` successive
    ``rng.choice(num_nodes, replication, replace=False)`` calls returns;
    :func:`repro.draws.choice_rows` draws them in one pass.
    """
    if num_nodes < replication:
        raise ValueError("need at least `replication` nodes")
    rows = choice_rows(rng, num_nodes, replication, num_chunks)
    return np.array(rows, dtype=np.int64).reshape(num_chunks, replication)


def empirical_local_chunks(
    num_chunks: int,
    replication: int,
    num_nodes: int,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Samples of X = chunks local to node 0 under random placement.

    By symmetry the process's node can be fixed at 0: X counts chunks with a
    replica on node 0.  Vectorised: each chunk contributes Bernoulli(r/m)
    (exact, because replicas are distinct nodes).
    """
    p = replication / num_nodes
    return rng.binomial(num_chunks, p, size=trials)


def empirical_cdf(samples: np.ndarray, k: int | np.ndarray) -> np.ndarray | float:
    """Empirical P(sample <= k), vectorised over ``k``."""
    samples = np.asarray(samples)
    k_arr = np.atleast_1d(np.asarray(k))
    cdf = (samples[None, :] <= k_arr[:, None]).mean(axis=1)
    return cdf if np.ndim(k) else float(cdf[0])


@dataclass(frozen=True)
class ServeSample:
    """One trial's per-node served-chunk counts."""

    served: np.ndarray  # shape (m,), chunks served per node
    stored: np.ndarray  # shape (m,), chunks stored per node


def simulate_serve_counts(
    num_chunks: int,
    replication: int,
    num_nodes: int,
    rng: np.random.Generator,
) -> ServeSample:
    """One draw of the §III-B serving model.

    Every chunk is requested exactly once and served by a uniformly random
    replica holder (the all-remote approximation the paper makes).
    """
    placement = sample_placement(num_chunks, replication, num_nodes, rng)
    pick = rng.integers(replication, size=num_chunks)
    servers = placement[np.arange(num_chunks), pick]
    served = np.bincount(servers, minlength=num_nodes)
    stored = np.bincount(placement.ravel(), minlength=num_nodes)
    return ServeSample(served=served, stored=stored)


def empirical_nodes_serving(
    num_chunks: int,
    replication: int,
    num_nodes: int,
    trials: int,
    rng: np.random.Generator,
) -> dict[str, float]:
    """Average per-trial counts of under/over-loaded nodes (§III-B)."""
    at_most_1 = 0.0
    more_than_8 = 0.0
    max_served = 0.0
    for _ in range(trials):
        sample = simulate_serve_counts(num_chunks, replication, num_nodes, rng)
        at_most_1 += float(np.sum(sample.served <= 1))
        more_than_8 += float(np.sum(sample.served > 8))
        max_served += float(sample.served.max())
    return {
        "nodes_at_most_1": at_most_1 / trials,
        "nodes_more_than_8": more_than_8 / trials,
        "mean_max_served": max_served / trials,
    }
