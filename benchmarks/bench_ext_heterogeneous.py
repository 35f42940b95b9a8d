"""Extension bench: speed-weighted quotas on a heterogeneous cluster.

§IV-D targets heterogeneous environments but seeds the dynamic scheduler
with an equal-share matching.  When half the nodes have 2x-faster disks,
equal quotas leave the fast half idle while the slow half straggles; the
speed-weighted matching (quotas ∝ disk bandwidth) shortens the makespan
while keeping reads local.
"""

from repro.core import (
    ProcessPlacement,
    graph_from_filesystem,
    optimize_single_data,
    plan_heterogeneous,
    tasks_from_dataset,
)
from repro.dfs import ClusterSpec, DistributedFileSystem, NodeSpec
from repro.dfs.cluster import DEFAULT_NIC_BW
from repro.simulate import ParallelReadRun, StaticSource
from repro.viz import paper_vs_measured
from repro.workloads import single_data_workload

NODES = 32
FAST_BW = 140e6
SLOW_BW = 70e6


def _build(seed: int):
    nodes = tuple(
        NodeSpec(i, disk_bw=FAST_BW if i < NODES // 2 else SLOW_BW, nic_bw=DEFAULT_NIC_BW)
        for i in range(NODES)
    )
    spec = ClusterSpec(nodes=nodes)
    fs = DistributedFileSystem(spec, seed=seed)
    data = single_data_workload(NODES, 10)
    fs.put_dataset(data)
    placement = ProcessPlacement.one_per_node(NODES)
    tasks = tasks_from_dataset(data)
    graph = graph_from_filesystem(fs, tasks, placement)
    return spec, fs, placement, tasks, graph


def run_comparison(seed: int = 0):
    out = {}
    for variant in ("equal", "weighted"):
        spec, fs, placement, tasks, graph = _build(seed)
        if variant == "equal":
            assignment = optimize_single_data(graph, seed=seed).assignment
        else:
            assignment = plan_heterogeneous(graph, spec, seed=seed).matching.assignment
        run = ParallelReadRun(
            fs, placement, tasks, StaticSource(assignment), seed=seed
        ).run()
        out[variant] = (assignment, run)
    return out


def test_ext_heterogeneous_quotas(benchmark):
    out = benchmark.pedantic(lambda: run_comparison(seed=0), rounds=1, iterations=1)
    equal_a, equal_run = out["equal"]
    weighted_a, weighted_run = out["weighted"]

    fast_load = sum(len(weighted_a.tasks_of[r]) for r in range(NODES // 2))
    slow_load = sum(len(weighted_a.tasks_of[r]) for r in range(NODES // 2, NODES))

    print()
    print(paper_vs_measured([
        ("fast:slow disk ratio", "-", "2:1"),
        ("weighted task split fast/slow", "-", f"{fast_load}/{slow_load}"),
        ("makespan equal quotas", "-", f"{equal_run.makespan:.1f} s"),
        ("makespan weighted quotas", "-", f"{weighted_run.makespan:.1f} s"),
        ("locality equal / weighted", "-",
         f"{equal_run.locality_fraction:.0%} / {weighted_run.locality_fraction:.0%}"),
    ], title="heterogeneous cluster: speed-weighted Opass quotas"))

    assert equal_run.tasks_completed == weighted_run.tasks_completed == 320
    # Weighted quotas load the fast half ~2x the slow half (Hamilton
    # rounding of 13.33/6.67 per rank lands slightly below exactly 2:1).
    assert 1.7 <= fast_load / slow_load <= 2.1
    # And finish sooner: the slow disks stop being the critical path.
    assert weighted_run.makespan < equal_run.makespan * 0.85
    # Locality stays high in both (weighted may trade a little away).
    assert weighted_run.locality_fraction > 0.8
