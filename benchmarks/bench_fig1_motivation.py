"""Figure 1 reproduction: imbalanced serving + varied I/O times (motivation).

Paper setup: "an MPI-based application running with parallel processes on a
64-node cluster to read a data set, which contains 128 chunks, each around
64 MB.  Ideally, each node should serve 2 chunks.  However … some nodes,
for instance node-43, serve more than 6 chunks while some node serve none"
and the resulting read times "vary greatly".
"""

from repro.experiments import run_motivating_experiment
from repro.metrics import imbalance_factor
from repro.viz import format_histogram, paper_vs_measured

NODES = 64
CHUNKS = 128


def test_fig1_motivating_imbalance(benchmark):
    outcome = benchmark.pedantic(
        lambda: run_motivating_experiment(num_nodes=NODES, num_chunks=CHUNKS, seed=0),
        rounds=1, iterations=1,
    )
    result, served = outcome.run, outcome.chunks_served
    durations = result.durations()

    # Figure 1(a): chunks served per node, ideal = 2 each.
    assert served.sum() == CHUNKS
    assert served.max() >= 5, "some node should serve far more than ideal"
    assert served.min() == 0, "some node should serve nothing"

    # Figure 1(b): I/O times vary widely.
    assert imbalance_factor(durations) > 3

    print("\n=== Figure 1(a): chunks served per node (64 nodes, 128 chunks) ===")
    print("ideal: 2 chunks/node; measured per-node counts:")
    print(" ".join(str(c) for c in served))
    print("\n=== Figure 1(b): I/O time distribution ===")
    print(format_histogram(durations, bins=8))
    print()
    print(paper_vs_measured([
        ("max chunks served by a node", "> 6", int(served.max())),
        ("min chunks served by a node", "0", int(served.min())),
        ("I/O time spread (max/min)", "varies greatly", f"{imbalance_factor(durations):.1f}x"),
    ], title="Figure 1 summary"))
