"""Remote-access pattern analysis (paper §III-A, Figure 3).

With ``n`` chunks randomly assigned to parallel processes on an ``m``-node
cluster under ``r``-way random replication, the number of chunks a given
process can read locally is ``X ~ Binomial(n, r/m)``.  The paper plots the
CDF of X for n = 512, r = 3 and m ∈ {64, 128, 256, 512}, and reports
P(X > 5) for each m.

All functions are vectorised over ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import stats

# scipy.stats takes about as long to import as a 512-node Fig-7 run takes
# to match and simulate, so only local_chunks_distribution (which every CDF
# below goes through) imports it, on first call.

#: The cluster sizes plotted in Figure 3.
FIGURE3_CLUSTER_SIZES = (64, 128, 256, 512)
#: Figure 3's dataset: "a 32G dataset consisting of 512 chunks", r = 3.
FIGURE3_NUM_CHUNKS = 512
FIGURE3_REPLICATION = 3


def _validate(num_chunks: int, replication: int, num_nodes: int) -> None:
    if num_chunks <= 0:
        raise ValueError("num_chunks must be positive")
    if replication <= 0:
        raise ValueError("replication must be positive")
    if num_nodes < replication:
        raise ValueError("need at least `replication` nodes")


def local_read_probability(replication: int, num_nodes: int) -> float:
    """P(one chunk is readable locally by a given process) = r/m."""
    _validate(1, replication, num_nodes)
    return replication / num_nodes


def local_chunks_distribution(
    num_chunks: int, replication: int, num_nodes: int
) -> stats.rv_discrete:
    """The Binomial(n, r/m) law of the number of locally-readable chunks."""
    from scipy import stats

    _validate(num_chunks, replication, num_nodes)
    return stats.binom(num_chunks, replication / num_nodes)


def cdf_local_chunks(
    k: int | np.ndarray,
    num_chunks: int,
    replication: int,
    num_nodes: int,
) -> np.ndarray | float:
    """P(X <= k): the paper's cumulative distribution function.

    ``P(X <= k) = sum_{i=0}^{k} C(n, i) (r/m)^i (1 - r/m)^{n-i}``
    """
    dist = local_chunks_distribution(num_chunks, replication, num_nodes)
    return dist.cdf(k)


def prob_more_than(
    k: int,
    num_chunks: int,
    replication: int,
    num_nodes: int,
) -> float:
    """P(X > k) = 1 − P(X ≤ k); the §III-A headline quantity."""
    return float(1.0 - cdf_local_chunks(k, num_chunks, replication, num_nodes))


def expected_local_chunks(num_chunks: int, replication: int, num_nodes: int) -> float:
    """E[X] = n·r/m."""
    _validate(num_chunks, replication, num_nodes)
    return num_chunks * replication / num_nodes


def expected_local_fraction(replication: int, num_nodes: int) -> float:
    """Expected fraction of a process's reads that can be local (r/m)."""
    return local_read_probability(replication, num_nodes)


@dataclass(frozen=True)
class Figure3Row:
    """One CDF series of Figure 3."""

    num_nodes: int
    k: np.ndarray
    cdf: np.ndarray
    prob_more_than_5: float


def figure3_series(
    k_max: int = 20,
    num_chunks: int = FIGURE3_NUM_CHUNKS,
    replication: int = FIGURE3_REPLICATION,
    cluster_sizes: tuple[int, ...] = FIGURE3_CLUSTER_SIZES,
) -> list[Figure3Row]:
    """Compute every series of Figure 3 plus the §III-A P(X>5) values."""
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    ks = np.arange(k_max + 1)
    rows = []
    for m in cluster_sizes:
        cdf = np.asarray(cdf_local_chunks(ks, num_chunks, replication, m))
        rows.append(
            Figure3Row(
                num_nodes=m,
                k=ks,
                cdf=cdf,
                prob_more_than_5=prob_more_than(5, num_chunks, replication, m),
            )
        )
    return rows


def paper_figure3_series(
    k_max: int = 20,
    num_chunks: int = FIGURE3_NUM_CHUNKS,
    cluster_sizes: tuple[int, ...] = FIGURE3_CLUSTER_SIZES,
) -> list[Figure3Row]:
    """Figure 3 with the parameterisation the paper *actually printed*.

    The paper's §III-A formula is ``Binomial(n, r/m)``, but the percentages
    it reports (81.09 %, 21.43 %, 1.64 % for m = 64/128/256) are those of
    ``Binomial(n, 1/m)`` — i.e. the formula evaluated with r = 1.  (The
    quoted 0.46 % for m = 512 matches neither exactly; ``Binomial(512,
    1/512)`` gives ≈0.06 %.)  This helper reproduces the printed numbers so
    the benchmark can report both the corrected curve and the paper's.
    """
    return figure3_series(
        k_max=k_max,
        num_chunks=num_chunks,
        replication=1,
        cluster_sizes=cluster_sizes,
    )
