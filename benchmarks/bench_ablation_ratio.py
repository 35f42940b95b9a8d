"""Ablation: chunks-per-process ratio.

Paper: "Our test dataset contains approximately ten chunk files for every
process.  Note that this is an arbitrary ratio that could be changed
without affecting the performance of Opass."  This ablation verifies that
claim: Opass's locality and per-chunk I/O time stay flat as the ratio
sweeps from 2 to 40 chunks per process.
"""

from repro.core import ProcessPlacement, tasks_from_dataset
from repro.dfs import ClusterSpec, DistributedFileSystem
from repro.parallel import run_opass_single, run_rank_interval
from repro.viz import format_table
from repro.workloads import single_data_workload

NODES = 32


def sweep_ratio(seed: int = 0):
    rows = []
    for ratio in (2, 5, 10, 20, 40):
        fs = DistributedFileSystem(ClusterSpec.homogeneous(NODES), seed=seed)
        data = single_data_workload(NODES, ratio)
        fs.put_dataset(data)
        placement = ProcessPlacement.one_per_node(NODES)
        tasks = tasks_from_dataset(data)
        base = run_rank_interval(fs, placement, tasks, seed=seed)
        fs.reset_counters()
        opass = run_opass_single(fs, placement, tasks, seed=seed)
        rows.append((
            ratio,
            base.result.io_stats()["avg"],
            opass.result.io_stats()["avg"],
            opass.result.locality_fraction,
        ))
    return rows


def test_ablation_chunks_per_process_ratio(benchmark):
    rows = benchmark.pedantic(lambda: sweep_ratio(seed=0), rounds=1, iterations=1)
    print("\n=== ablation: chunks-per-process ratio (32 nodes) ===")
    print(format_table(
        ["chunks/process", "baseline avg io (s)", "opass avg io (s)", "opass locality"],
        rows, float_fmt="{:.3f}",
    ))

    opass_avgs = [r[2] for r in rows]
    opass_locs = [r[3] for r in rows]
    # The paper's claim: the ratio does not affect Opass's performance.
    assert max(opass_avgs) - min(opass_avgs) < 0.15
    assert all(loc > 0.95 for loc in opass_locs)
    # The baseline stays contended at every ratio.
    assert all(r[1] > 1.5 * r[2] for r in rows)
