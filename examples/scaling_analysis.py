#!/usr/bin/env python3
"""Analytical scaling study: §III's models vs Monte-Carlo vs full simulation.

Three independent estimates of how locality and balance decay as the
cluster grows:

1. closed-form (§III-A/B binomial models, both the paper's printed r=1
   parameterisation and the corrected r=3 one);
2. Monte-Carlo placement sampling;
3. full end-to-end runs on the cluster simulator.

Run:  python examples/scaling_analysis.py
"""

import numpy as np

from repro.analysis import (
    empirical_nodes_serving,
    expected_local_fraction,
    expected_nodes_serving_at_most,
    expected_nodes_serving_more_than,
    figure3_series,
    paper_figure3_series,
)
from repro.core import ProcessPlacement, tasks_from_dataset
from repro.dfs import ClusterSpec, DistributedFileSystem
from repro.parallel import run_rank_interval
from repro.viz import format_table
from repro.workloads import single_data_workload


def locality_vs_cluster_size() -> None:
    print("=== locality decay with cluster size (n = 10 chunks/process, r = 3) ===")
    rows = []
    for m in (8, 16, 32, 64):
        analytic = expected_local_fraction(3, m)
        fs = DistributedFileSystem(ClusterSpec.homogeneous(m), seed=m)
        data = single_data_workload(m, 10)
        fs.put_dataset(data)
        out = run_rank_interval(
            fs, ProcessPlacement.one_per_node(m), tasks_from_dataset(data), seed=1
        )
        rows.append((m, f"{analytic:.1%}", f"{out.result.locality_fraction:.1%}"))
    print(format_table(["nodes", "model r/m", "simulated"], rows))
    print()


def figure3_cdf() -> None:
    print("=== Figure 3: P(X > 5) locally-read chunks (n = 512) ===")
    corrected = {r.num_nodes: r.prob_more_than_5 for r in figure3_series()}
    printed = {r.num_nodes: r.prob_more_than_5 for r in paper_figure3_series()}
    paper_quotes = {64: 0.8109, 128: 0.2143, 256: 0.0164, 512: 0.0046}
    rows = [
        (m, f"{paper_quotes[m]:.2%}", f"{printed[m]:.2%}", f"{corrected[m]:.2%}")
        for m in (64, 128, 256, 512)
    ]
    print(format_table(
        ["nodes", "paper quotes", "our r=1 (paper's arithmetic)", "our r=3 (paper's formula)"],
        rows,
    ))
    print("(The paper's printed numbers follow Binomial(n, 1/m); "
          "its own formula says Binomial(n, r/m).)\n")


def balance_model_vs_montecarlo(*, seed: int) -> None:
    print("=== §III-B imbalance: model vs Monte-Carlo (n=512, r=3, m=128) ===")
    rng = np.random.default_rng(seed)
    mc = empirical_nodes_serving(512, 3, 128, trials=400, rng=rng)
    rows = [
        ("nodes serving <=1 chunk",
         f"{expected_nodes_serving_at_most(1, 512, 3, 128):.1f}",
         f"{mc['nodes_at_most_1']:.1f}"),
        ("nodes serving >8 chunks",
         f"{expected_nodes_serving_more_than(8, 512, 3, 128):.1f}",
         f"{mc['nodes_more_than_8']:.1f}"),
        ("hottest node serves (chunks)", "-", f"{mc['mean_max_served']:.1f}"),
    ]
    print(format_table(["metric", "closed form", "Monte-Carlo"], rows))
    print("(Average load is 4 chunks/node: the hottest node serves ~3x that, "
          "idle nodes sit at <=1 — the paper's imbalance story.)")


def main(seed: int = 0) -> None:
    locality_vs_cluster_size()
    figure3_cdf()
    balance_model_vs_montecarlo(seed=seed)


if __name__ == "__main__":
    main()
