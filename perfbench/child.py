"""One sample of one workload, in a fresh interpreter; prints one JSON line.

``run.py`` starts this once per sample, so no module-level cache (the
locality-graph LRU, the max-flow replay memo) carries over from one sample
to the next, as for a command-line user.  By hand::

    python3 perfbench/child.py --workload fig7-single --seed 0 --reference
    python3 perfbench/child.py --workload fig7-single --seed 0 --expect-digest HEX [--trace]

The workload runs, timed, and then every output check is made.  Its record
digest is checked against ``--expect-digest``, or with ``--reference``
against the matching public library call, run after the timed part in the
same interpreter.  The exit status is 0 when every check passed and 1
otherwise.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

from spans import LAYER_OF, NullTracer, Tracer, clock, install  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

#: Largest share of the traced wall time the spans may leave unattributed.
UNATTRIBUTED_TOLERANCE = 0.05


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true", help="record layer spans")
    p.add_argument("--reference", action="store_true",
                   help="also run the matching public library call and check "
                        "the digest against it")
    p.add_argument("--expect-digest", help="digest the records must hash to")
    p.add_argument("--launched", type=float,
                   help="time.monotonic() just before this interpreter was started")
    return p.parse_args(argv)


def layer_metrics(
    tracer: Tracer, wall_s: float, outcome: Any, sched: dict[str, float],
    sim: dict[str, float],
) -> tuple[dict[str, float], dict[str, bool]]:
    """The per-layer metrics of a traced sample, and the trace's own checks."""
    times, roots_s = tracer.layer_times()

    def self_s(name: str) -> float:
        return times.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> float:
        return times.get(name, {}).get("calls", 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    unattributed = wall_s - roots_s
    events = sim["flow_events"] + sim["timer_events"]
    m: dict[str, float] = {
        "dfs.resolve_read_calls": calls("dfs.resolve_read"),
        "dfs.resolve_read_s": self_s("dfs.resolve_read"),
        "dfs.place_chunk_s": self_s("dfs.place_chunk"),
        "core.graph_build_s": self_s("core.graph_build"),
        "core.match_s": self_s("core.match"),
        "core.plan_s": self_s("core.plan"),
        "core.next_task_calls": calls("core.next_task"),
        "core.next_task_s": self_s("core.next_task"),
        "core.steals": outcome.steals,
        "engine.self_s": self_s("engine.run"),
        "engine.api_s": self_s("engine.api"),
        "engine.solve_s": sim["solve_wall"],
        "engine.settle_s": sim["settle_wall"],
        "engine.scan_s": sim["scan_wall"],
        "engine.events": events,
        "runner.callback_s": self_s("runner.callback"),
        "runner.callbacks": calls("runner.callback"),
        "runner.result_s": self_s("runner.run"),
        "assemble.s": self_s("assemble"),
        "unattributed_s": unattributed,
        "trace.wall_s": wall_s,
        "trace.spans": len(tracer.spans),
        "engine.memo_hit_ratio": ratio(sim["memo_hits"], sim["component_solves"]),
        "engine.vectorized_ratio": ratio(
            sim["vectorized_solves"], sim["component_solves"]
        ),
        "engine.timer_event_ratio": ratio(sim["timer_events"], events),
        "engine.cascade_ratio": ratio(sim["cascade_events"], sim["flow_events"]),
        "engine.stale_pop_ratio": ratio(sim["stale_pops"], sim["heap_pushes"]),
    }
    for key in ("augmentations", "bfs_phases", "solve_replays", "cache_hits",
                "cache_misses"):
        m[f"core.{key}"] = sched[key]
    for key in ("flow_events", "timer_events", "component_solves",
                "component_size_max", "component_size_mean", "vectorized_solves",
                "parallel_solves", "memo_hits", "cascade_events", "coalesced_events",
                "stale_pops", "heap_pushes"):
        m[f"engine.{key}"] = sim[key]
    layer_s: dict[str, float] = {}
    for name, agg in times.items():
        layer = LAYER_OF.get(name, name)
        layer_s[layer] = layer_s.get(layer, 0.0) + agg["self_s"]
    for layer in sorted(set(LAYER_OF.values())):
        m[f"share.{layer}"] = layer_s.get(layer, 0.0) / wall_s
    m["share.unattributed"] = unattributed / wall_s
    checks = {
        "trace_spans_known": set(times) <= set(LAYER_OF),
        "trace_self_times_nonnegative": all(
            agg["self_s"] >= -1e-9 for agg in times.values()
        ),
        "trace_unattributed_within_tolerance": (
            0.0 <= unattributed <= UNATTRIBUTED_TOLERANCE * wall_s
        ),
    }
    return m, checks


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    fresh = "repro" not in sys.modules
    t0 = clock()
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401
    import workloads
    from repro.core import SchedPerf

    import_s = clock() - t0
    wl = workloads.WORKLOADS[args.workload]
    t = clock()
    state = wl.setup(args.seed)
    layout_s = clock() - t
    tracer: Any = Tracer() if args.trace else NullTracer()
    if args.trace:
        install(tracer, state.fs)
    perf = SchedPerf()
    setup_done = time.monotonic()
    t_setup = clock()
    outcome = wl.execute(state, tracer, perf)
    t_end = clock()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        tracer.uninstall()
    wall_s = t_end - t_setup

    run_digest = workloads.digest(outcome.runs)
    completed = sum(len(r) for r in outcome.runs)
    checks = {"all_ops_completed": completed == outcome.ops_expected}
    checks.update(wl.check(state, outcome))
    expect = args.expect_digest
    if args.reference:
        expect = workloads.digest(wl.reference(args.seed))
    if expect:
        checks["digest_matches_reference"] = run_digest == expect
    sim = workloads.sum_sim_perf(outcome.sim_perfs)
    sched = perf.snapshot()
    out: dict[str, Any] = dict(
        workload=wl.name,
        seed=args.seed,
        fresh_interpreter=fresh,
        setup_s=setup_done - (STARTED if args.launched is None else args.launched),
        import_s=import_s,
        layout_s=layout_s,
        wall_s=wall_s,
        peak_rss_mb=peak_rss_mb,
        replicas=sum(dn.num_replicas for dn in state.fs.datanodes.values()),
        ops=outcome.ops_expected,
        digest=run_digest,
        reference_digest=expect,
        figures=outcome.figures,
        zero_counters=workloads.zero_counters(sim, sched),
    )
    if args.trace:
        metrics, trace_checks = layer_metrics(tracer, wall_s, outcome, sched, sim)
        checks.update(trace_checks)
        out["layers"] = metrics
    ok = all(checks.values())
    out.update(checks=checks, ops_failed=0 if ok else outcome.ops_expected)
    print(json.dumps(out))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
