"""Command-line interface: ``opass <command>``.

Runs the paper's experiments from a terminal without writing code:

* ``opass analyze`` — §III closed-form locality/balance numbers;
* ``opass single`` — the §V-A1 equal-assignment comparison;
* ``opass multi``  — the §V-A2 multi-input comparison;
* ``opass dynamic`` — the §V-A3 master/worker comparison;
* ``opass paraview`` — the §V-B ParaView pipeline comparison;
* ``opass figure <id>`` — run one paper figure (fig1..fig12) by id;
* ``opass sweep`` — Figure 7/8's cluster-size sweep;
* ``opass export`` — run the single-data comparison and write CSV/JSON;
* ``opass report`` — regenerate the full markdown reproduction report;
* ``opass validate`` — the model-vs-simulation consistency grid;
* ``opass hotspot`` — hottest-node extreme-value prediction;
* ``opass ingest`` — timed HDFS write-pipeline ingestion.

All experiments print paper-style avg/max/min tables.  See ``benchmarks/``
for the full figure-by-figure reproduction harness.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .core import ProcessPlacement
from .dfs import ClusterSpec, DistributedFileSystem


def _fresh_cluster(nodes: int, seed: int) -> tuple[DistributedFileSystem, ProcessPlacement]:
    spec = ClusterSpec.homogeneous(nodes)
    fs = DistributedFileSystem(spec, seed=seed)
    return fs, ProcessPlacement.one_per_node(nodes)


def cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import figure3_series, section3b_summary
    from .viz import format_table

    rows = []
    for row in figure3_series():
        rows.append((row.num_nodes, f"{row.prob_more_than_5 * 100:.2f}%"))
    print(format_table(["cluster size m", "P(X > 5)"], rows,
                       title="§III-A: probability of reading >5 chunks locally (n=512, r=3)"))
    s = section3b_summary()
    print()
    print(format_table(
        ["metric", "value"],
        [
            ("expected chunks served per node", f"{s.expected_served:.2f}"),
            ("E[nodes serving <=1 chunk] (x m)", f"{s.nodes_at_most_1:.1f}"),
            ("E[nodes serving >8 chunks] (x m)", f"{s.nodes_more_than_8:.1f}"),
            ("paper's multiplier (x n), <=1", f"{s.paper_multiplier_at_most_1:.1f}"),
            ("paper's multiplier (x n), >8", f"{s.paper_multiplier_more_than_8:.1f}"),
        ],
        title="§III-B: imbalance expectations (n=512, r=3, m=128)",
    ))
    return 0


def cmd_single(args: argparse.Namespace) -> int:
    from .core import tasks_from_dataset
    from .parallel import run_opass_single, run_rank_interval
    from .viz import format_table
    from .workloads import single_data_workload

    fs, placement = _fresh_cluster(args.nodes, args.seed)
    data = single_data_workload(args.nodes, args.chunks_per_process)
    fs.put_dataset(data)
    tasks = tasks_from_dataset(data)
    base = run_rank_interval(fs, placement, tasks, seed=args.seed)
    fs.reset_counters()
    opass = run_opass_single(fs, placement, tasks, seed=args.seed, opass_seed=args.seed)
    rows = []
    for name, outcome in [("w/o Opass", base), ("with Opass", opass)]:
        s = outcome.result.io_stats()
        rows.append(
            (name, s["avg"], s["max"], s["min"],
             f"{outcome.result.locality_fraction * 100:.0f}%",
             outcome.result.makespan)
        )
    print(format_table(
        ["method", "avg io (s)", "max io (s)", "min io (s)", "local reads", "makespan (s)"],
        rows,
        title=f"Parallel single-data access, {args.nodes} nodes x {args.chunks_per_process} chunks/process",
    ))
    return 0


def cmd_multi(args: argparse.Namespace) -> int:
    from .apps import MultiInputComparison
    from .viz import format_table
    from .workloads import multi_input_datasets

    fs, placement = _fresh_cluster(args.nodes, args.seed)
    datasets = multi_input_datasets(args.tasks)
    for ds in datasets:
        fs.put_dataset(ds)
    rows = []
    for name, use in [("w/o Opass", False), ("with Opass", True)]:
        fs.reset_counters()
        out = MultiInputComparison(fs, placement, datasets, use_opass=use).execute(
            seed=args.seed
        )
        s = out.result.io_stats()
        rows.append((name, s["avg"], s["max"], s["min"],
                     f"{out.result.locality_fraction * 100:.0f}%", out.result.makespan))
    print(format_table(
        ["method", "avg io (s)", "max io (s)", "min io (s)", "local bytes", "makespan (s)"],
        rows,
        title=f"Parallel multi-data access, {args.nodes} nodes, {args.tasks} tasks (30+20+10 MB inputs)",
    ))
    return 0


def cmd_dynamic(args: argparse.Namespace) -> int:
    from .apps import MpiBlastRun
    from .viz import format_table
    from .workloads import gene_database

    fs, placement = _fresh_cluster(args.nodes, args.seed)
    db = gene_database(args.tasks)
    fs.put_dataset(db)
    rows = []
    for name, use in [("default dynamic", False), ("Opass dynamic", True)]:
        fs.reset_counters()
        out = MpiBlastRun(fs, placement, db, use_opass=use).execute(seed=args.seed)
        s = out.result.io_stats()
        rows.append((name, s["avg"], s["max"], s["min"],
                     f"{out.result.locality_fraction * 100:.0f}%", out.result.makespan))
    print(format_table(
        ["method", "avg io (s)", "max io (s)", "min io (s)", "local reads", "makespan (s)"],
        rows,
        title=f"Dynamic (master/worker) access, {args.nodes} nodes, {args.tasks} fragments",
    ))
    return 0


def cmd_paraview(args: argparse.Namespace) -> int:
    from .apps import ParaViewMultiBlockReader
    from .viz import format_series, format_table
    from .workloads import paraview_multiblock_series

    fs, placement = _fresh_cluster(args.nodes, args.seed)
    series = paraview_multiblock_series(args.datasets)
    fs.put_dataset(series)
    rows = []
    traces = []
    for name, use in [("w/o Opass", False), ("with Opass", True)]:
        fs.reset_counters()
        result = ParaViewMultiBlockReader(
            fs, placement, series, use_opass=use
        ).render(seed=args.seed)
        rows.append((name, result.avg_call_time, result.std_call_time,
                     result.min_call_time, result.max_call_time,
                     result.total_execution_time))
        traces.append((name, result.reader_call_times))
    print(format_table(
        ["method", "avg call (s)", "std", "min", "max", "total run (s)"],
        rows,
        title=f"ParaView MultiBlock rendering, {args.nodes} nodes, {args.datasets} datasets",
    ))
    if args.trace:
        print()
        for name, t in traces:
            print(format_series(name, t))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .core import tasks_from_dataset
    from .parallel import run_opass_single, run_rank_interval
    from .viz import format_table
    from .workloads import single_data_workload

    sizes = [int(s) for s in args.sizes.split(",")]
    rows = []
    for m in sizes:
        fs, placement = _fresh_cluster(m, args.seed)
        data = single_data_workload(m, args.chunks_per_process)
        fs.put_dataset(data)
        tasks = tasks_from_dataset(data)
        base = run_rank_interval(fs, placement, tasks, seed=args.seed)
        fs.reset_counters()
        opass = run_opass_single(fs, placement, tasks, seed=args.seed,
                                 opass_seed=args.seed)
        b, o = base.result.io_stats(), opass.result.io_stats()
        rows.append((m, b["avg"], b["max"], b["min"], o["avg"], o["max"], o["min"]))
    print(format_table(
        ["nodes", "base avg", "base max", "base min",
         "opass avg", "opass max", "opass min"],
        rows,
        title=f"Figure 7(a)/(b) sweep, {args.chunks_per_process} chunks/process",
    ))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .core import tasks_from_dataset
    from .metrics import write_records_csv, write_run_json
    from .parallel import run_opass_single, run_rank_interval
    from .workloads import single_data_workload

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    fs, placement = _fresh_cluster(args.nodes, args.seed)
    data = single_data_workload(args.nodes, args.chunks_per_process)
    fs.put_dataset(data)
    tasks = tasks_from_dataset(data)
    written = []
    for name, runner in [("baseline", run_rank_interval), ("opass", run_opass_single)]:
        fs.reset_counters()
        outcome = runner(fs, placement, tasks, seed=args.seed)
        written.append(write_records_csv(outcome.result, outdir / f"{name}_reads.csv"))
        written.append(
            write_run_json(outcome.result, outdir / f"{name}_summary.json",
                           num_nodes=args.nodes)
        )
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    """Run one paper figure through the typed experiments API."""
    from . import experiments as exp
    from .viz import format_table

    fig = args.id
    if fig == "fig1":
        out = exp.run_motivating_experiment(seed=args.seed)
        print(format_table(
            ["metric", "value"],
            [
                ("max chunks served by a node", int(out.chunks_served.max())),
                ("min chunks served by a node", int(out.chunks_served.min())),
                ("avg io (s)", f"{out.run.io_stats()['avg']:.2f}"),
                ("max io (s)", f"{out.run.io_stats()['max']:.2f}"),
            ],
            title="Figure 1 (64 nodes, 128 chunks, rank intervals)",
        ))
    elif fig in ("fig7", "fig8"):
        cmp = exp.run_single_data_comparison(args.nodes, seed=args.seed)
        b, o = cmp.base.io_stats(), cmp.opass.io_stats()
        print(format_table(
            ["method", "avg io", "max io", "min io", "max MB/node", "min MB/node"],
            [
                ("w/o Opass", b["avg"], b["max"], b["min"],
                 float(cmp.base_served_mb.max()), float(cmp.base_served_mb.min())),
                ("with Opass", o["avg"], o["max"], o["min"],
                 float(cmp.opass_served_mb.max()), float(cmp.opass_served_mb.min())),
            ],
            title=f"Figures 7/8 at {args.nodes} nodes",
        ))
    elif fig == "fig9" or fig == "fig10":
        cmp = exp.run_multi_data_comparison(num_nodes=args.nodes, seed=args.seed)
        print(format_table(
            ["method", "avg io", "locality", "max MB/node"],
            [
                ("w/o Opass", cmp.base.result.io_stats()["avg"],
                 f"{cmp.base.result.locality_fraction:.0%}",
                 float(cmp.base_served_mb.max())),
                ("with Opass", cmp.opass.result.io_stats()["avg"],
                 f"{cmp.opass.result.locality_fraction:.0%}",
                 float(cmp.opass_served_mb.max())),
            ],
            title=f"Figures 9/10 at {args.nodes} nodes "
                  f"(improvement {cmp.io_improvement:.1f}x)",
        ))
    elif fig == "fig11":
        cmp = exp.run_dynamic_comparison(num_nodes=args.nodes, seed=args.seed)
        print(format_table(
            ["method", "avg io", "locality", "makespan"],
            [
                ("default dynamic", cmp.base.result.io_stats()["avg"],
                 f"{cmp.base.result.locality_fraction:.0%}",
                 cmp.base.result.makespan),
                ("Opass dynamic", cmp.opass.result.io_stats()["avg"],
                 f"{cmp.opass.result.locality_fraction:.0%}",
                 cmp.opass.result.makespan),
            ],
            title=f"Figure 11 at {args.nodes} nodes "
                  f"(improvement {cmp.io_improvement:.1f}x)",
        ))
    elif fig == "fig12":
        cmp = exp.run_paraview_comparison(num_nodes=args.nodes, seed=args.seed)
        print(format_table(
            ["method", "avg call", "std", "min", "max", "total (s)"],
            [
                ("w/o Opass", cmp.stock.avg_call_time, cmp.stock.std_call_time,
                 cmp.stock.min_call_time, cmp.stock.max_call_time,
                 cmp.stock.total_execution_time),
                ("with Opass", cmp.opass.avg_call_time, cmp.opass.std_call_time,
                 cmp.opass.min_call_time, cmp.opass.max_call_time,
                 cmp.opass.total_execution_time),
            ],
            title=f"Figure 12 at {args.nodes} nodes "
                  f"(saves {cmp.time_saved:.0f} s)",
        ))
    else:
        raise SystemExit(f"unknown figure id {fig!r} "
                         "(expected fig1/fig7/fig8/fig9/fig10/fig11/fig12)")
    return 0


def cmd_hotspot(args: argparse.Namespace) -> int:
    import numpy as np

    from .analysis import empirical_max_served, hotspot_summary
    from .viz import format_table

    s = hotspot_summary(args.chunks, args.replication, args.nodes)
    rng = np.random.default_rng(args.seed)
    mc = empirical_max_served(
        args.chunks, args.replication, args.nodes, trials=args.trials, rng=rng
    )
    print(format_table(
        ["metric", "value"],
        [
            ("ideal share (chunks/node)", f"{s.ideal_share:.2f}"),
            ("E[hottest node] (model)", f"{s.expected_max:.1f} chunks"),
            ("E[hottest node] (Monte-Carlo)", f"{mc:.1f} chunks"),
            ("overload factor", f"{s.overload_factor:.1f}x ideal"),
        ],
        title=f"hottest-node prediction: n={args.chunks}, r={args.replication}, m={args.nodes}",
    ))
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    from .dfs import HdfsWriterLocalPlacement
    from .dfs.chunk import uniform_dataset
    from .simulate import DatasetIngest
    from .viz import format_table

    spec = ClusterSpec.homogeneous(args.nodes)
    fs = DistributedFileSystem(
        spec,
        replication=args.replication,
        placement=HdfsWriterLocalPlacement(),
        seed=args.seed,
    )
    data = uniform_dataset("ingest", args.chunks)
    writers = ProcessPlacement.one_per_node(args.nodes)
    result = DatasetIngest(fs, writers, data, seed=args.seed).run()
    s = result.write_stats()
    print(format_table(
        ["metric", "value"],
        [
            ("chunks written", len(result.records)),
            ("data written", f"{result.bytes_written / 1e9:.1f} GB"),
            ("avg chunk write", f"{s['avg']:.2f} s"),
            ("max chunk write", f"{s['max']:.2f} s"),
            ("ingest makespan", f"{result.makespan:.1f} s"),
        ],
        title=f"HDFS write pipeline: {args.nodes} writers, r={args.replication}",
    ))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .report import ReportConfig, generate_report

    cfg = ReportConfig(
        num_nodes=args.nodes, seed=args.seed,
        include_extensions=args.extensions,
    )
    text = generate_report(cfg)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .analysis import validation_grid
    from .viz import format_table

    sizes = tuple(int(s) for s in args.sizes.split(","))
    rows = validation_grid(cluster_sizes=sizes, trials=args.trials, seed=args.seed)
    print(format_table(
        ["nodes", "r", "model locality", "simulated", "|error|"],
        [
            (r.num_nodes, r.replication, r.model_locality,
             r.simulated_locality, r.locality_error)
            for r in rows
        ],
        title="model vs simulation locality (random assignment)",
        float_fmt="{:.3f}",
    ))
    worst = max(r.locality_error for r in rows)
    print(f"\nworst deviation: {worst:.3f}")
    return 0 if worst < 0.1 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opass",
        description="Opass (IPDPS 2015) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="closed-form §III locality/balance analysis")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("single", help="§V-A1 single-data comparison")
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--chunks-per-process", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_single)

    p = sub.add_parser("multi", help="§V-A2 multi-data comparison")
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--tasks", type=int, default=640)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_multi)

    p = sub.add_parser("dynamic", help="§V-A3 dynamic comparison")
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--tasks", type=int, default=640)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_dynamic)

    p = sub.add_parser("paraview", help="§V-B ParaView comparison")
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--datasets", type=int, default=640)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true", help="print per-call traces")
    p.set_defaults(func=cmd_paraview)

    p = sub.add_parser("sweep", help="figure 7/8 cluster-size sweep")
    p.add_argument("--sizes", default="16,32,48,64,80",
                   help="comma-separated cluster sizes")
    p.add_argument("--chunks-per-process", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export", help="run single-data comparison, write CSV/JSON")
    p.add_argument("outdir", help="output directory")
    p.add_argument("--nodes", type=int, default=32)
    p.add_argument("--chunks-per-process", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("validate", help="model-vs-simulation consistency grid")
    p.add_argument("--sizes", default="8,16,32")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("report", help="regenerate a full reproduction report")
    p.add_argument("-o", "--output", default=None, help="write markdown here")
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--extensions", action="store_true",
                   help="append analytical extension sections")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("figure", help="run one paper figure by id")
    p.add_argument("id", help="fig1 | fig7 | fig8 | fig9 | fig10 | fig11 | fig12")
    p.add_argument("--nodes", type=int, default=16,
                   help="cluster size (paper uses 64; default 16 for speed)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("hotspot", help="hottest-node extreme-value prediction")
    p.add_argument("--chunks", type=int, default=640)
    p.add_argument("--replication", type=int, default=3)
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_hotspot)

    p = sub.add_parser("ingest", help="timed HDFS write-pipeline ingestion")
    p.add_argument("--nodes", type=int, default=32)
    p.add_argument("--chunks", type=int, default=320)
    p.add_argument("--replication", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ingest)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
