"""Regenerate the simulator golden fixture.

Usage (from the repo root)::

    PYTHONPATH=src python tests/data/make_golden_sim_seed.py [--check]

Two fixture files pin the simulator; only one is ever written:

``golden_sim_component.json``
    Pins the engine, bit for bit.  This script rewrites it.

``golden_sim_seed.json``
    Captured from the pre-incremental seed engine.  **Never
    rewritten**, and no engine today reproduces it: it stays as a
    cross-check.  Component-sliced water-filling matches the reference
    arithmetic exactly within a component but rounds the global water
    level differently across components, so the engine's trajectories
    sit an ulp away from the seed engine's.  On 12 of the 13 workloads
    that is invisible (≤3e-15 relative); on one (``fig7_m16_s0_base``)
    a wave of chunk reads finishes at the *exact same* simulated instant
    and the firing order among the tied flows — float noise in the seed
    engine, canonical ``flow_id`` order in the engine — permutes
    downstream replica draws, so that run diverges in makespan while
    byte counts and locality stay identical.  See
    tests/test_sim_golden.py for the cross-check.

``--check`` compares what the engine produces against
``golden_sim_component.json`` without rewriting anything, and prints the
engine-vs-seed deviation per fixture.  Exits non-zero on any mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

SEED_PATH = Path(__file__).parent / "golden_sim_seed.json"
COMPONENT_PATH = Path(__file__).parent / "golden_sim_component.json"

#: Fixtures whose run legitimately diverges from the seed pin beyond
#: float noise (exact-tie firing order, see module docstring).
TIE_DIVERGENT = ("fig7_m16_s0_base",)


def records_digest(result) -> str:
    h = hashlib.sha256()
    for r in sorted(result.records, key=lambda r: r.seq):
        h.update(
            repr(
                (r.seq, r.rank, r.task_id, str(r.chunk), r.server_node,
                 r.reader_node, r.local, r.issue_time, r.end_time)
            ).encode()
        )
    return h.hexdigest()


def run_entry(result) -> dict:
    return {
        "makespan": repr(result.makespan),
        "digest": records_digest(result),
        "local_bytes": result.local_bytes,
        "remote_bytes": result.remote_bytes,
        "io": {k: repr(v) for k, v in result.io_stats().items()},
    }


def ingest_64_wl():
    """64 writers, 128 chunks, writer-local HDFS placement, seed 0.

    Three-node write pipelines merge into components of 32 or more flows,
    so the default engine runs its numpy water-filling tier here (the
    8-writer ``ingest_8`` never gets that large).  Returns the ingest
    (its ``sim.perf`` counts the numpy-tier solves) and its result.
    """
    from repro.core import ProcessPlacement
    from repro.dfs import (
        ClusterSpec,
        DistributedFileSystem,
        HdfsWriterLocalPlacement,
        uniform_dataset,
    )
    from repro.simulate import DatasetIngest

    fs = DistributedFileSystem(
        ClusterSpec.homogeneous(64),
        replication=3,
        placement=HdfsWriterLocalPlacement(),
        seed=0,
    )
    ing = DatasetIngest(
        fs,
        ProcessPlacement.one_per_node(64),
        uniform_dataset("ingest", 128),
        seed=0,
    )
    return ing, ing.run()


def ingest_64_wl_entry(result) -> dict:
    return {
        "makespan": repr(result.makespan),
        "writes": {k: repr(v) for k, v in result.write_stats().items()},
        "records": [repr(r) for r in sorted(result.records, key=lambda r: r.seq)],
    }


def build() -> dict:
    """Run every pinned workload and collect the fixtures."""
    from repro.analysis import validation_grid
    from repro.core import (
        ProcessPlacement,
        rank_interval_assignment,
        tasks_from_dataset,
    )
    from repro.dfs import ClusterSpec, DistributedFileSystem, uniform_dataset
    from repro.dfs.chunk import MB
    from repro.experiments.dynamic import run_dynamic_comparison
    from repro.experiments.paraview import run_paraview_comparison
    from repro.experiments.single_data import run_single_data_comparison
    from repro.simulate import DatasetIngest, FaultPlan, ParallelReadRun, StaticSource
    from repro.workloads import single_data_workload

    golden: dict = {}

    for num_nodes, seed in [(16, 9), (16, 0), (32, 0), (64, 1)]:
        c = run_single_data_comparison(num_nodes, seed=seed)
        golden[f"fig7_m{num_nodes}_s{seed}_base"] = run_entry(c.base)
        golden[f"fig7_m{num_nodes}_s{seed}_opass"] = run_entry(c.opass)

    golden["validation"] = [
        {"nodes": r.num_nodes, "repl": r.replication,
         "sim_loc": repr(r.simulated_locality),
         "sim_std": repr(r.simulated_served_std)}
        for r in validation_grid(
            cluster_sizes=(8, 16, 32), replications=(2, 3), trials=3, seed=0
        )
    ]

    pv = run_paraview_comparison(num_nodes=8, num_datasets=48, seed=3)
    golden["paraview_8_s3"] = {
        "stock": run_entry(pv.stock.run),
        "opass": run_entry(pv.opass.run),
        "stock_total": repr(pv.stock.total_execution_time),
        "opass_total": repr(pv.opass.total_execution_time),
    }

    fs = DistributedFileSystem(ClusterSpec.homogeneous(8), seed=7)
    ing = DatasetIngest(
        fs,
        ProcessPlacement.one_per_node(8),
        uniform_dataset("ing", 24, chunk_size=16 * MB),
        seed=7,
    )
    res = ing.run()
    golden["ingest_8"] = {
        "makespan": repr(res.makespan),
        "writes": {k: repr(v) for k, v in res.write_stats().items()},
    }

    golden["ingest_64_wl"] = ingest_64_wl_entry(ingest_64_wl()[1])

    fs = DistributedFileSystem(ClusterSpec.homogeneous(8), replication=3, seed=5)
    data = single_data_workload(8, 6)
    fs.put_dataset(data)
    tasks = tasks_from_dataset(data)
    run = ParallelReadRun(
        fs,
        ProcessPlacement.one_per_node(8),
        tasks,
        StaticSource(rank_interval_assignment(len(tasks), 8)),
        seed=5,
    )
    FaultPlan().fail(1.5, 2).fail(3.0, 5).attach(run)
    golden["faults_8"] = run_entry(run.run())

    dyn = run_dynamic_comparison(num_nodes=8, num_fragments=48, seed=2)
    golden["dynamic_8_s2"] = {
        "base": run_entry(dyn.base.result),
        "opass": run_entry(dyn.opass.result),
        "base_steals": dyn.base.steals,
        "opass_steals": dyn.opass.steals,
    }

    return golden


def _floats(entry, path=""):
    """Yield (path, float) for every numeric value in a golden entry."""
    if isinstance(entry, dict):
        for k, v in entry.items():
            if k == "digest":
                continue
            yield from _floats(v, f"{path}.{k}" if path else k)
    elif isinstance(entry, list):
        for i, v in enumerate(entry):
            yield from _floats(v, f"{path}[{i}]")
    elif isinstance(entry, str):
        try:
            yield path, float(entry)
        except ValueError:
            pass
    elif isinstance(entry, (int, float)):
        yield path, float(entry)


def cross_check(component: dict, seed: dict) -> int:
    """Print engine-vs-seed deviation per fixture; 1e-9 budget except
    for the documented tie-divergent fixtures."""
    status = 0
    for key in sorted(seed):
        seed_floats = dict(_floats(seed[key], key))
        comp_floats = dict(_floats(component.get(key, {}), key))
        worst, worst_at = 0.0, "-"
        for p, sv in seed_floats.items():
            cv = comp_floats.get(p)
            if cv is None:
                print(f"MISSING  {p}")
                status = 1
                continue
            dev = abs(cv - sv) / max(abs(sv), 1e-12)
            if dev > worst:
                worst, worst_at = dev, p
        divergent = key in TIE_DIVERGENT
        note = "  [tie-divergent, exempt]" if divergent else ""
        print(f"{key:24s} max rel dev {worst:.3e}  at {worst_at}{note}")
        if worst > 1e-9 and not divergent:
            status = 1
    return status


def dumps(golden: dict) -> str:
    return json.dumps(golden, indent=1, sort_keys=True) + "\n"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed files instead of rewriting them",
    )
    args = parser.parse_args(argv)
    comp_pins = build()
    committed_seed = json.loads(SEED_PATH.read_text())
    if args.check:
        status = 0
        if comp_pins != json.loads(COMPONENT_PATH.read_text()):
            print(f"FAIL: the engine no longer reproduces {COMPONENT_PATH.name}")
            status = 1
        else:
            print(f"{COMPONENT_PATH.name}: exact OK")
        return status | cross_check(comp_pins, committed_seed)
    COMPONENT_PATH.write_text(dumps(comp_pins))
    print(f"wrote {COMPONENT_PATH} ({SEED_PATH.name} is never rewritten)")
    return cross_check(comp_pins, committed_seed)

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
