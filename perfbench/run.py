"""The repository benchmark: one workload, many fresh-interpreter samples.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload fig7-single --seed 0 --seconds 20 --trace 0

Workloads: ``fig7-single``, ``fig9-multi``, ``fig11-dynamic``,
``ingest-write`` (see perfbench/README.md).  The run starts one fresh
interpreter per sample (``child.py``) for ``--seconds``, and at least
:data:`MIN_SAMPLES` times.  The first sample also runs the
matching public library call after its timed part; every sample's records
must hash to that call's digest and pass the workload's own checks.

``--trace 0`` reports the medians of the end-to-end metrics (``setup_s``,
``wall_s``, ``ops_per_s``, ``peak_rss_mb``).  ``--trace 1`` alternates an
untraced and a traced sample and reports the medians of the per-layer
metrics plus ``trace.overhead_ratio``.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a per-sample table goes to standard error.  The exit status is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The names of ``workloads.WORKLOADS``, repeated so that this process never
#: imports the library it measures.
WORKLOADS = ("fig7-single", "fig9-multi", "fig11-dynamic", "ingest-write")
MIN_SAMPLES = 3
#: A sample takes 2 to 6 s; one that hangs must not hold the run past 180 s.
CHILD_TIMEOUT_S = 60

#: One process, one thread, a fixed string hash: samples differ only in time.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchmarkError(RuntimeError):
    """A sample could not be taken at all (crash, timeout, bad output)."""


def layer_unit(name: str) -> str:
    """Per-layer names say their unit: seconds end in ``_s`` (or are
    ``assemble.s``), ratios are ``share.*`` or ``*_ratio``, the rest count."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.startswith("share.") or name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_child(workload: str, seed: int, *extra: str) -> dict[str, Any]:
    """Start one fresh interpreter for one sample and parse its JSON line."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    launched = time.monotonic()
    proc = subprocess.run(
        [*cmd, "--launched", repr(launched)],
        cwd=ROOT,
        env={**os.environ, **CHILD_ENV},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchmarkError(
            f"sample {' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def sample_ok(sample: dict[str, Any]) -> bool:
    return (
        sample["ops_failed"] == 0
        and sample["fresh_interpreter"]
        and all(sample["checks"].values())
    )


def describe(sample: dict[str, Any]) -> str:
    bad = [k for k, v in sample["checks"].items() if not v]
    status = "ok" if sample_ok(sample) else f"FAILED {bad}"
    kind = "traced  " if "layers" in sample else "untraced"
    return (
        f"  {kind} setup {sample['setup_s']:.3f} s  wall {sample['wall_s']:.3f} s  "
        f"rss {sample['peak_rss_mb']:.1f} MB  {status}"
    )


def median(samples: list[dict[str, Any]], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def end_to_end(samples: list[dict[str, Any]]) -> dict[str, float]:
    return {
        "setup_s": median(samples, "setup_s"),
        "wall_s": median(samples, "wall_s"),
        "ops_per_s": statistics.median(s["ops"] / s["wall_s"] for s in samples),
        "peak_rss_mb": median(samples, "peak_rss_mb"),
    }


def per_layer(untraced: list[dict[str, Any]], traced: list[dict[str, Any]]) -> dict[str, float]:
    metrics = {
        name: statistics.median(s["layers"][name] for s in traced)
        for name in traced[0]["layers"]
    }
    metrics["setup.import_s"] = median(traced, "import_s")
    metrics["dfs.layout_s"] = median(traced, "layout_s")
    metrics["dfs.replicas"] = median(traced, "replicas")
    # Counts are functions of the seed, so every traced sample has the
    # same zero counters.
    metrics["coverage.zero_counters"] = len(traced[0]["zero_counters"])
    metrics["trace.overhead_ratio"] = median(traced, "wall_s") / median(untraced, "wall_s")
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Take samples for ``seconds``; returns the result object to print."""
    untraced: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    start = time.monotonic()
    # A trace run takes samples in untraced/traced pairs.  A round starts
    # only if one as long as the last still ends within ``seconds``.
    min_rounds = 1 if trace else MIN_SAMPLES
    rounds = 0
    last = 0.0
    expect: tuple[str, ...] = ("--reference",)
    while rounds < min_rounds or time.monotonic() - start + last < seconds:
        rounds += 1
        began = time.monotonic()
        batch = [run_child(workload, seed, *expect)]
        untraced.extend(batch)
        expect = ("--expect-digest", batch[0]["reference_digest"])
        if trace:
            batch.append(run_child(workload, seed, *expect, "--trace"))
            traced.append(batch[-1])
        last = time.monotonic() - began
        for sample in batch:
            print(describe(sample), file=sys.stderr)
        if not all(sample_ok(s) for s in batch):
            break
    # Traced and untraced samples are held to the same reference digest.
    samples = untraced + traced
    correct = all(sample_ok(s) for s in samples)
    if trace and correct:
        zeros = ", ".join(traced[0]["zero_counters"])
        print(f"counters that stay zero on {workload}: {zeros}", file=sys.stderr)
        values = per_layer(untraced, traced)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    elif correct:
        metrics = {
            k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in end_to_end(untraced).items()
        }
    else:
        metrics = {}
    return {
        "correct": correct,
        "attempted": sum(s["ops"] for s in samples),
        "failed": sum(s["ops_failed"] for s in samples),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
