"""Regenerate the matching golden fixtures.

Usage (from the repo root)::

    PYTHONPATH=src python tests/data/make_golden_matching.py [--check]

Three fixture files pin the scheduler-side kernels byte-for-byte on fixed
seeds, the same discipline as the simulator goldens:

``golden_matching_single.json``
    :func:`repro.core.optimize_single_data` assignments (unit and byte
    capacity modes, both fallback policies, both max-flow algorithms,
    one-per-node and k-per-node placements).

``golden_matching_multi.json``
    :func:`repro.core.optimize_multi_data` assignments (Algorithm 1) on
    the paper's 30+20+10 MB multi-input workload and on random
    multi-chunk graphs.

``golden_matching_remote.json``
    :func:`repro.core.plan_remote_reads` serving plans (convex min-cost
    flow) on random replica layouts.

These fixtures were captured from the pre-CSR solvers (PR 5) and are the
contract the CSR/array rewrites must reproduce exactly: ``--check``
compares without rewriting and exits non-zero on any byte difference.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).parent
SINGLE_PATH = HERE / "golden_matching_single.json"
MULTI_PATH = HERE / "golden_matching_multi.json"
REMOTE_PATH = HERE / "golden_matching_remote.json"


def assignment_entry(assignment) -> dict:
    return {str(r): list(ts) for r, ts in sorted(assignment.tasks_of.items())}


def _random_multi_graph(num_ranks: int, num_tasks: int, seed: int):
    """A multi-chunk locality graph with irregular sizes and replication."""
    import numpy as np

    from repro.core.bipartite import ProcessPlacement, build_locality_graph
    from repro.core.tasks import Task
    from repro.dfs.chunk import MB, ChunkId

    rng = np.random.default_rng(seed)
    tasks = []
    locations: dict[ChunkId, tuple[int, ...]] = {}
    sizes: dict[ChunkId, int] = {}
    for t in range(num_tasks):
        n_inputs = int(rng.integers(1, 4))
        inputs = []
        for j in range(n_inputs):
            cid = ChunkId(f"t{t}", j)
            repl = int(rng.integers(1, 4))
            nodes = tuple(
                int(x) for x in rng.choice(num_ranks, size=repl, replace=False)
            )
            locations[cid] = nodes
            sizes[cid] = int(rng.integers(1, 64)) * MB
            inputs.append(cid)
        tasks.append(Task(t, tuple(inputs)))
    placement = ProcessPlacement.one_per_node(num_ranks)
    return build_locality_graph(tasks, locations, sizes, placement)


def build_single() -> dict:
    from repro.core import (
        ProcessPlacement,
        graph_from_filesystem,
        optimize_single_data,
        tasks_from_dataset,
    )
    from repro.dfs import ClusterSpec, DistributedFileSystem
    from repro.workloads import single_data_workload

    golden: dict = {}
    cases = [
        ("m16_s0", 16, 10, 3, 0),
        ("m16_s7", 16, 10, 3, 7),
        ("m12_r2_s3", 12, 6, 2, 3),
    ]
    for key, m, cpp, repl, seed in cases:
        fs = DistributedFileSystem(
            ClusterSpec.homogeneous(m), replication=repl, seed=seed
        )
        data = single_data_workload(m, cpp)
        fs.put_dataset(data)
        tasks = tasks_from_dataset(data)
        placement = ProcessPlacement.one_per_node(m)
        graph = graph_from_filesystem(fs, tasks, placement)
        for mode in ("unit", "bytes"):
            for fallback in ("random", "least_loaded"):
                r = optimize_single_data(
                    graph, capacity_mode=mode, fallback=fallback, seed=seed
                )
                golden[f"{key}_{mode}_{fallback}"] = {
                    "assignment": assignment_entry(r.assignment),
                    "max_flow": r.max_flow,
                    "full_matching": r.full_matching,
                    "matched": sorted(r.matched_tasks),
                    "fallback": sorted(r.fallback_tasks),
                }
        r = optimize_single_data(graph, algorithm="edmonds_karp", seed=seed)
        golden[f"{key}_edmonds_karp"] = {
            "assignment": assignment_entry(r.assignment),
            "max_flow": r.max_flow,
        }

    # Two ranks per node: edges shared by co-resident ranks.
    fs = DistributedFileSystem(ClusterSpec.homogeneous(8), seed=1)
    data = single_data_workload(8, 8)
    fs.put_dataset(data)
    tasks = tasks_from_dataset(data)
    placement = ProcessPlacement.k_per_node(8, 2)
    graph = graph_from_filesystem(fs, tasks, placement)
    r = optimize_single_data(graph, seed=1)
    golden["m8_k2_s1_unit_random"] = {
        "assignment": assignment_entry(r.assignment),
        "max_flow": r.max_flow,
    }
    return golden


def build_multi() -> dict:
    from repro.core import (
        ProcessPlacement,
        graph_from_filesystem,
        optimize_multi_data,
        tasks_from_datasets,
    )
    from repro.dfs import ClusterSpec, DistributedFileSystem
    from repro.workloads import multi_input_datasets

    golden: dict = {}
    for m, n_tasks, seed in [(8, 24, 0), (8, 24, 4), (16, 48, 2)]:
        fs = DistributedFileSystem(ClusterSpec.homogeneous(m), seed=seed)
        datasets = multi_input_datasets(n_tasks)
        for ds in datasets:
            fs.put_dataset(ds)
        tasks = tasks_from_datasets(datasets)
        placement = ProcessPlacement.one_per_node(m)
        graph = graph_from_filesystem(fs, tasks, placement)
        r = optimize_multi_data(graph, seed=seed)
        golden[f"m{m}_n{n_tasks}_s{seed}"] = {
            "assignment": assignment_entry(r.assignment),
            "local_bytes": r.local_bytes,
            "reassignments": r.reassignments,
            "proposals": r.proposals,
        }
    for m, n_tasks, seed in [(6, 30, 11), (10, 50, 13)]:
        graph = _random_multi_graph(m, n_tasks, seed)
        r = optimize_multi_data(graph, seed=seed)
        golden[f"rand_m{m}_n{n_tasks}_s{seed}"] = {
            "assignment": assignment_entry(r.assignment),
            "local_bytes": r.local_bytes,
            "reassignments": r.reassignments,
            "proposals": r.proposals,
        }
    return golden


def build_remote() -> dict:
    import numpy as np

    from repro.core import plan_remote_reads
    from repro.dfs.chunk import ChunkId

    golden: dict = {}
    for n_chunks, n_nodes, repl, seed in [
        (20, 8, 3, 0),
        (40, 12, 2, 5),
        (64, 16, 3, 9),
    ]:
        rng = np.random.default_rng(seed)
        chunk_ids = [ChunkId(f"r{i}", 0) for i in range(n_chunks)]
        locations = {
            cid: tuple(
                int(x) for x in rng.choice(n_nodes, size=repl, replace=False)
            )
            for cid in chunk_ids
        }
        r = plan_remote_reads(chunk_ids, locations)
        golden[f"c{n_chunks}_n{n_nodes}_r{repl}_s{seed}"] = {
            "server_of": {str(cid): node for cid, node in sorted(
                r.server_of.items(), key=lambda kv: str(kv[0])
            )},
            "load": {str(k): v for k, v in sorted(r.load_per_node.items())},
            "max_load": r.max_load,
            "cost": r.cost,
        }
    return golden


def dumps(golden: dict) -> str:
    return json.dumps(golden, indent=1, sort_keys=True) + "\n"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed files instead of rewriting them",
    )
    args = parser.parse_args(argv)
    produced = {
        SINGLE_PATH: build_single(),
        MULTI_PATH: build_multi(),
        REMOTE_PATH: build_remote(),
    }
    status = 0
    for path, golden in produced.items():
        text = dumps(golden)
        if args.check:
            committed = path.read_text()
            if committed != text:
                print(f"FAIL: {path.name} no longer reproduced byte-for-byte")
                status = 1
            else:
                print(f"{path.name}: OK ({len(golden)} fixtures)")
        else:
            path.write_text(text)
            print(f"wrote {path.name} ({len(golden)} fixtures)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
