"""Extension bench: Opass under DataNode failures.

Replication is HDFS's reliability story; this bench quantifies what a
failure costs an Opass-scheduled run: the dead node's chunks fall back to
remote replicas (locality dips by ≈ 1/m), in-flight reads retry, and the
run still completes every task.
"""

from repro.core import ProcessPlacement, opass_single_data, tasks_from_dataset
from repro.dfs import ClusterSpec, DistributedFileSystem
from repro.simulate import FaultPlan, ParallelReadRun, StaticSource
from repro.viz import paper_vs_measured
from repro.workloads import single_data_workload

NODES = 32


def _build(seed: int):
    fs = DistributedFileSystem(ClusterSpec.homogeneous(NODES), seed=seed)
    data = single_data_workload(NODES, 10)
    fs.put_dataset(data)
    placement = ProcessPlacement.one_per_node(NODES)
    tasks = tasks_from_dataset(data)
    result, _, _ = opass_single_data(fs, data, placement, seed=seed)
    return fs, placement, tasks, result.assignment


def run_comparison(seed: int = 0, failures: int = 2):
    fs, placement, tasks, assignment = _build(seed)
    clean = ParallelReadRun(
        fs, placement, tasks, StaticSource(assignment), seed=seed
    ).run()

    fs, placement, tasks, assignment = _build(seed)
    run = ParallelReadRun(fs, placement, tasks, StaticSource(assignment), seed=seed)
    plan = FaultPlan()
    for i in range(failures):
        plan.fail(1.0 + 2.0 * i, i)  # kill nodes 0..failures-1 mid-run
    plan.attach(run)
    faulty = run.run()
    return clean, faulty


def test_ext_fault_tolerance(benchmark):
    clean, faulty = benchmark.pedantic(
        lambda: run_comparison(seed=0, failures=2), rounds=1, iterations=1
    )

    print()
    print(paper_vs_measured([
        ("tasks completed (clean/faulty)", "-",
         f"{clean.tasks_completed}/{faulty.tasks_completed}"),
        ("read retries after 2 node deaths", "-", faulty.read_retries),
        ("locality clean -> faulty", "-",
         f"{clean.locality_fraction:.0%} -> {faulty.locality_fraction:.0%}"),
        ("makespan clean -> faulty", "-",
         f"{clean.makespan:.1f} s -> {faulty.makespan:.1f} s"),
    ], title="Opass run surviving 2 DataNode failures (32 nodes, r=3)"))

    # No work lost: replication absorbs the failures.
    assert faulty.tasks_completed == clean.tasks_completed == 320
    assert clean.read_retries == 0
    # Locality degrades gracefully: the two dead nodes' own chunks
    # (~2/32 of the tasks) go remote, nothing else changes.
    assert faulty.locality_fraction > clean.locality_fraction - 0.15
    assert faulty.locality_fraction < clean.locality_fraction
    # All bytes still delivered exactly once.
    total = 320 * 64e6
    assert faulty.local_bytes + faulty.remote_bytes == total
