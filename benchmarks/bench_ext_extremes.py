"""Extension bench: predicting the hottest node analytically.

The §III-B model bounds one node's load; the figures' headline numbers are
about the hottest of m nodes.  The extreme-value extension P(max ≤ k) ≈
P(Z ≤ k)^m predicts Figure 1's ">6 chunks" and Figure 8(c)'s hottest-node
load from first principles, matching both Monte-Carlo and the full
simulator.
"""

import numpy as np

from repro.analysis import empirical_max_served, hotspot_summary
from repro.viz import paper_vs_measured


def test_ext_hotspot_prediction(benchmark, sweep_results):
    fig1 = benchmark(lambda: hotspot_summary(128, 3, 64))
    fig8 = hotspot_summary(640, 3, 64)
    rng = np.random.default_rng(0)
    mc_fig8 = empirical_max_served(640, 3, 64, trials=200, rng=rng)

    # The full simulator's hottest node at the Fig 8(c) configuration.
    sim_max_mb = max(r.base_served_mb.max() for r in sweep_results[64])

    print()
    print(paper_vs_measured([
        ("Fig 1 hottest node (ideal 2)", "> 6 chunks",
         f"E[max] = {fig1.expected_max:.1f} chunks"),
        ("Fig 8(c) hottest node (ideal 640 MB)", "> 1400 MB",
         f"E[max] = {fig8.expected_max * 64:.0f} MB (model), "
         f"{mc_fig8 * 64:.0f} MB (Monte-Carlo), "
         f"{sim_max_mb:.0f} MB (simulator)"),
        ("overload factor at 64 nodes", "-", f"{fig8.overload_factor:.1f}x ideal"),
    ], title="extreme-value hotspot prediction"))

    # Model ≈ Monte-Carlo ≈ simulator, all in the paper's regime.
    assert fig1.expected_max > 5.0
    assert abs(mc_fig8 - fig8.expected_max) < 1.5
    assert abs(sim_max_mb - fig8.expected_max * 64) < 350
    assert fig8.overload_factor > 1.5
