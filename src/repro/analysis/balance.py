"""Imbalanced-access pattern analysis (paper §III-B).

For a storage node ``n_j``: ``Y`` = number of chunks stored on ``n_j``
follows ``Binomial(n, r/m)``.  Assuming (per §III-A) that essentially all
requests are remote and each of a chunk's ``r`` replica holders is equally
likely to serve it, the number of chunks served by ``n_j`` is, conditionally
on ``Y = a``, ``Binomial(a, 1/r)``; by the law of total probability

    P(Z <= k) = Σ_a P(Binomial(a, 1/r) <= k) · P(Y = a).

Binomial thinning collapses the compound law exactly: ``Z ~ Binomial(n,
(r/m)·(1/r)) = Binomial(n, 1/m)``.  We implement both the paper's
total-probability sum (:func:`cdf_served_chunks_total_probability`) and the
closed form (:func:`served_chunks_distribution`), and test they agree.

Note on the paper's numbers: §III-B multiplies the probabilities by 512
(= n) to get "expected number of nodes", where the number of nodes m = 128
is the meaningful multiplier; with m = 128 the first quantity
(128 · P(Z ≤ 1)) indeed rounds to the paper's 11.  We expose both
multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import stats

# scipy.stats takes about as long to import as a 512-node Fig-7 run takes
# to match and simulate, and only the closed-form models below use it, so
# each one imports it on first call.


def _validate(num_chunks: int, replication: int, num_nodes: int) -> None:
    if num_chunks <= 0:
        raise ValueError("num_chunks must be positive")
    if replication <= 0:
        raise ValueError("replication must be positive")
    if num_nodes < replication:
        raise ValueError("need at least `replication` nodes")


def stored_chunks_distribution(
    num_chunks: int, replication: int, num_nodes: int
) -> stats.rv_discrete:
    """Y ~ Binomial(n, r/m): chunks stored on one node."""
    from scipy import stats

    _validate(num_chunks, replication, num_nodes)
    return stats.binom(num_chunks, replication / num_nodes)


def served_chunks_distribution(
    num_chunks: int, replication: int, num_nodes: int
) -> stats.rv_discrete:
    """Z ~ Binomial(n, 1/m): chunks served by one node (closed form)."""
    from scipy import stats

    _validate(num_chunks, replication, num_nodes)
    return stats.binom(num_chunks, 1.0 / num_nodes)


def cdf_served_chunks(
    k: int | np.ndarray, num_chunks: int, replication: int, num_nodes: int
) -> np.ndarray | float:
    """P(Z <= k) via the exact thinned binomial."""
    return served_chunks_distribution(num_chunks, replication, num_nodes).cdf(k)


def cdf_served_chunks_total_probability(
    k: int, num_chunks: int, replication: int, num_nodes: int
) -> float:
    """P(Z <= k) computed exactly as the paper writes it (summed over a).

    ``P(Z<=k) = Σ_{a=0}^{n} [Σ_{i=0}^{k} C(a,i)(1/r)^i (1-1/r)^{a-i}] P(Y=a)``
    """
    from scipy import stats

    _validate(num_chunks, replication, num_nodes)
    if k < 0:
        return 0.0
    a = np.arange(num_chunks + 1)
    p_y = stats.binom.pmf(a, num_chunks, replication / num_nodes)
    # P(Binomial(a, 1/r) <= k) for every a at once.
    cond = stats.binom.cdf(k, a, 1.0 / replication)
    return float(np.sum(cond * p_y))


def expected_nodes_serving_at_most(
    k: int,
    num_chunks: int,
    replication: int,
    num_nodes: int,
    *,
    multiplier: int | None = None,
) -> float:
    """Expected count of nodes serving ≤ k chunks.

    ``multiplier`` defaults to the node count m (the statistically meaningful
    choice); pass ``num_chunks`` to reproduce the paper's literal arithmetic.
    """
    mult = num_nodes if multiplier is None else multiplier
    return mult * float(cdf_served_chunks(k, num_chunks, replication, num_nodes))


def expected_nodes_serving_more_than(
    k: int,
    num_chunks: int,
    replication: int,
    num_nodes: int,
    *,
    multiplier: int | None = None,
) -> float:
    """Expected count of nodes serving > k chunks."""
    mult = num_nodes if multiplier is None else multiplier
    return mult * float(1.0 - cdf_served_chunks(k, num_chunks, replication, num_nodes))


@dataclass(frozen=True)
class BalanceSummary:
    """The §III-B quantities for one configuration."""

    num_chunks: int
    replication: int
    num_nodes: int
    expected_served: float
    nodes_at_most_1: float
    nodes_more_than_8: float
    paper_multiplier_at_most_1: float
    paper_multiplier_more_than_8: float


def section3b_summary(
    num_chunks: int = 512, replication: int = 3, num_nodes: int = 128
) -> BalanceSummary:
    """Reproduce the §III-B example (r=3, n=512, m=128)."""
    return BalanceSummary(
        num_chunks=num_chunks,
        replication=replication,
        num_nodes=num_nodes,
        expected_served=num_chunks / num_nodes,
        nodes_at_most_1=expected_nodes_serving_at_most(
            1, num_chunks, replication, num_nodes
        ),
        nodes_more_than_8=expected_nodes_serving_more_than(
            8, num_chunks, replication, num_nodes
        ),
        paper_multiplier_at_most_1=expected_nodes_serving_at_most(
            1, num_chunks, replication, num_nodes, multiplier=num_chunks
        ),
        paper_multiplier_more_than_8=expected_nodes_serving_more_than(
            8, num_chunks, replication, num_nodes, multiplier=num_chunks
        ),
    )
