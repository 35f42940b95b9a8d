"""Scheduler-side health: matching kernel wall-clock and throughput.

Not a paper figure — the maintainer's bench for the PR-5 matching hot
path.  The scenario it times is the steady-state re-matching round a
long-lived scheduler actually runs: the cluster layout has not changed
since the last round, so the snapshot→graph cache answers the build and
the graph's flow memo answers the solve.  The pre-PR kernels
(``tests/reference_matching``, a frozen snapshot of the dict-of-dict
graph and dataclass-edge solvers) rebuild and re-solve from scratch
every round; both sides produce bit-identical assignments, which the
golden fixtures and ``tests/test_properties_sched.py`` pin.

Beyond the printed table the bench emits ``BENCH_sched.json`` at the
repo root: one row per scale with cold/cached build times, cold/warm
solve times, steady-state matching throughput, the reference round time
and speedup, per-edge build allocations, and the ``SchedPerf`` counters.

Run standalone with a regression gate against the committed file::

    PYTHONPATH=src python benchmarks/bench_sched_performance.py \
        --scales 128,512 --check

``--check`` compares each measured scale's ``tasks_matched_per_second``
against the committed ``BENCH_sched.json`` and fails (exit 1) below
``REGRESSION_FLOOR`` (0.7×) of the committed number; without it the
measured rows are merged into the file.  CI runs the gated form on every
push (see .github/workflows/ci.yml, job ``bench-sched-regression``).
"""

import argparse
import gc
import json
import sys
import time
import tracemalloc
from pathlib import Path

# The frozen pre-PR oracle lives in the tests package (repo root).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.core import (
    ProcessPlacement,
    SchedPerf,
    build_locality_graph,
    clear_graph_cache,
    graph_from_filesystem,
    optimize_multi_data,
    optimize_single_data,
    tasks_from_dataset,
)
from repro.dfs import ClusterSpec, DistributedFileSystem
from repro.viz import format_table
from repro.workloads import single_data_workload
from tests.reference_matching import (
    build_locality_graph_ref,
    optimize_single_data_ref,
)

#: Cluster sizes; tasks = 10 per node (the Fig-7 density), so the last
#: point is the ISSUE's 1024-node / 10240-task scale.
SCALES = (128, 256, 512, 1024)

CHUNKS_PER_PROCESS = 10

#: Matching is deterministic, so run-to-run wall variance is pure
#: scheduler/frequency noise — report the fastest of a few repeats.
#: The warm rounds are single-digit milliseconds, so repeats are cheap
#: and the extra two materially steady the gated throughput number.
REPEATS = 5

#: ``--check`` fails when a scale's measured tasks_matched_per_second
#: drops below this fraction of the committed BENCH_sched.json number.
#: Loose enough for shared-runner noise, tight enough to catch a lost
#: graph cache, a dropped per-graph flow memo, or a return to dict-of-dict
#: graphs.
REGRESSION_FLOOR = 0.7

#: Extra sweep points for the scaling-curve artifact.  Not part of CI's
#: quick gate; `--extended` appends them.
EXTENDED_SCALES = (2048, 4096)

#: Per-edge heap bytes allocated by a cold CSR graph build (tracemalloc).
#: The flat-list CSR measures ~92 B/edge (which includes the graph's
#: O(n) task/size bookkeeping); the pre-PR dict-of-dict builder measures
#: ~123 B/edge.  The bound sits between the two, so an accidental return
#: to per-edge dict entries fails the bench.
MAX_BUILD_BYTES_PER_EDGE = 112.0

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_sched.json"


def _make_workload(m: int, seed: int):
    fs = DistributedFileSystem(ClusterSpec.homogeneous(m), seed=seed)
    data = single_data_workload(m, CHUNKS_PER_PROCESS)
    fs.put_dataset(data)
    placement = ProcessPlacement.one_per_node(m)
    tasks = tasks_from_dataset(data)
    return fs, placement, tasks


def _best(fn, repeats):
    """Fastest wall-clock of ``repeats`` runs of ``fn`` (seconds)."""
    times = []
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _run_once(m: int, seed: int, repeats: int = REPEATS):
    fs, placement, tasks = _make_workload(m, seed)
    locations = fs.layout_snapshot()
    sizes = {cid: fs.chunk(cid).size for t in tasks for cid in t.inputs}
    n = len(tasks)

    # Cold build, with the per-edge allocation micro-assert's raw number.
    clear_graph_cache()
    gc.collect()
    tracemalloc.start()
    t0 = time.perf_counter()
    graph = build_locality_graph(tasks, locations, sizes, placement)
    build_cold_s = time.perf_counter() - t0
    traced_bytes, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    bytes_per_edge = traced_bytes / graph.num_edges

    # Cold solve on the freshly built graph (empty scratch).
    t0 = time.perf_counter()
    optimize_single_data(graph, seed=seed)
    solve_cold_s = time.perf_counter() - t0

    # Multi-data (Algorithm 1) on the same graph, once — secondary metric.
    t0 = time.perf_counter()
    optimize_multi_data(graph, seed=seed)
    multi_s = time.perf_counter() - t0

    # Steady-state round: unchanged layout, so the graph comes from the
    # snapshot cache and the matching from the graph's flow memo.
    perf = SchedPerf()
    clear_graph_cache()
    graph_from_filesystem(fs, tasks, placement, perf=perf)

    def warm_round():
        g = graph_from_filesystem(fs, tasks, placement, perf=perf)
        optimize_single_data(g, seed=seed, perf=perf)

    warm_round()  # prime the graph's flow memo
    build_cached_s = _best(
        lambda: graph_from_filesystem(fs, tasks, placement, perf=perf), repeats
    )
    round_warm_s = _best(warm_round, repeats)

    # The pre-PR kernels have no cache to warm: their steady-state round
    # is a full rebuild plus a cold solve, every time.
    def ref_round():
        g = build_locality_graph_ref(tasks, locations, sizes, placement)
        optimize_single_data_ref(g, seed=seed)

    ref_round_s = _best(ref_round, repeats)

    snap = perf.snapshot()
    return {
        "nodes": m,
        "tasks": n,
        "edges": graph.num_edges,
        "build_cold_ms": build_cold_s * 1000,
        "build_cached_ms": build_cached_s * 1000,
        "solve_cold_ms": solve_cold_s * 1000,
        "round_warm_ms": round_warm_s * 1000,
        "tasks_matched_per_second": n / round_warm_s,
        "ref_round_ms": ref_round_s * 1000,
        "speedup_vs_reference": ref_round_s / round_warm_s,
        "multi_ms": multi_s * 1000,
        "build_bytes_per_edge": bytes_per_edge,
        "cache_hits": snap["cache_hits"],
        "cache_misses": snap["cache_misses"],
        "solves": snap["solves"],
        "solve_replays": snap["solve_replays"],
        "augmentations": snap["augmentations"],
        "bfs_phases": snap["bfs_phases"],
    }


def run_scaling(seed: int = 1, repeats: int = REPEATS, scales=SCALES):
    return [_run_once(m, seed, repeats) for m in scales]


def print_rows(rows):
    print("\n=== matching throughput (steady-state re-matching round) ===")
    print(format_table(
        ["nodes", "tasks", "edges", "build (ms)", "cached (ms)",
         "cold (ms)", "round (ms)", "tasks/s", "ref (ms)", "speedup",
         "B/edge"],
        [
            (r["nodes"], r["tasks"], r["edges"], r["build_cold_ms"],
             r["build_cached_ms"], r["solve_cold_ms"], r["round_warm_ms"],
             r["tasks_matched_per_second"], r["ref_round_ms"],
             r["speedup_vs_reference"], r["build_bytes_per_edge"])
            for r in rows
        ],
        float_fmt="{:.2f}",
    ))


def assert_row_health(r):
    """Structural invariants every scale must satisfy."""
    # A steady-state round must stay interactive even at 1024 nodes.
    assert r["round_warm_ms"] < 1000.0
    assert r["tasks_matched_per_second"] > 20_000
    # The cached build must be much cheaper than the cold one.
    assert r["build_cached_ms"] < r["build_cold_ms"]
    # Satellite micro-assert: the CSR build must stay flat-array cheap —
    # a return to per-edge dict entries roughly doubles this number.
    assert r["build_bytes_per_edge"] < MAX_BUILD_BYTES_PER_EDGE
    # The steady-state machinery must actually engage.
    assert r["cache_hits"] > 0
    assert r["solve_replays"] > 0
    # ≥5× matching throughput at 1024/10240 versus the pre-PR kernels
    # (a warm round is a graph-cache hit, a flow-memo hit and extraction).
    if r["nodes"] >= 1024:
        assert r["speedup_vs_reference"] >= 5.0


def test_sched_matching_throughput(benchmark):
    rows = benchmark.pedantic(lambda: run_scaling(seed=1), rounds=1, iterations=1)
    print_rows(rows)
    BENCH_JSON.write_text(json.dumps({"scales": rows}, indent=1) + "\n")
    for r in rows:
        assert_row_health(r)


def check_regression(rows, committed_path=BENCH_JSON, floor=REGRESSION_FLOOR):
    """Compare measured rows against the committed bench file.

    Returns a list of failure strings (empty = pass)."""
    committed = {
        r["nodes"]: r for r in json.loads(committed_path.read_text())["scales"]
    }
    failures = []
    for r in rows:
        base = committed.get(r["nodes"])
        if base is None:
            print(f"nodes={r['nodes']}: no committed baseline, skipping gate")
            continue
        ratio = r["tasks_matched_per_second"] / base["tasks_matched_per_second"]
        verdict = "OK" if ratio >= floor else "REGRESSION"
        print(
            f"nodes={r['nodes']}: {r['tasks_matched_per_second']:.0f} tasks/s "
            f"vs committed {base['tasks_matched_per_second']:.0f} "
            f"({ratio:.2f}x, floor {floor:.2f}x) {verdict}"
        )
        if ratio < floor:
            failures.append(
                f"nodes={r['nodes']} regressed to {ratio:.2f}x of committed "
                f"tasks_matched_per_second"
            )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="matching throughput bench / regression gate"
    )
    parser.add_argument(
        "--scales", default=",".join(str(s) for s in SCALES),
        help="comma-separated cluster sizes (default: %(default)s)",
    )
    parser.add_argument(
        "--repeats", type=int, default=REPEATS,
        help="runs per scale, fastest kept (default: %(default)s)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="where to write the measured rows (default: BENCH_sched.json "
             "when merging; with --check, only written if given)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="gate against the committed BENCH_sched.json instead of "
             "merging into it; exit 1 on regression",
    )
    parser.add_argument(
        "--extended", action="store_true",
        help=f"also sweep the artifact-only scales {EXTENDED_SCALES} "
             "(kept out of CI's quick gate)",
    )
    args = parser.parse_args(argv)
    scales = tuple(int(s) for s in args.scales.split(","))
    if args.extended:
        scales = scales + tuple(s for s in EXTENDED_SCALES if s not in scales)
    rows = run_scaling(seed=1, repeats=args.repeats, scales=scales)
    print_rows(rows)
    for r in rows:
        assert_row_health(r)
    if args.check:
        failures = check_regression(rows)
        if args.out is not None:
            args.out.write_text(json.dumps({"scales": rows}, indent=1) + "\n")
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1 if failures else 0
    # Merge: measured scales replace committed ones, others are kept.
    out = args.out if args.out is not None else BENCH_JSON
    merged = {}
    if BENCH_JSON.exists():
        merged = {
            r["nodes"]: r for r in json.loads(BENCH_JSON.read_text())["scales"]
        }
    merged.update({r["nodes"]: r for r in rows})
    out.write_text(
        json.dumps(
            {"scales": [merged[k] for k in sorted(merged)]}, indent=1
        ) + "\n"
    )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
