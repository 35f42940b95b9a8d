"""Tests of the benchmark itself: its output checks, its fresh-interpreter
set-up timing, its traced run and its result line.

Run from the repository root with ``python -m pytest perfbench``.  The
held-out-seed tests start real samples (about a minute in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.simulate import DatasetIngest, Simulation  # noqa: E402

HELD_OUT_SEED = 424242
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def child_in_process(capsys: pytest.CaptureFixture[str], *argv: str) -> tuple[int, dict[str, Any]]:
    code = child.main(list(argv))
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_tampered_record_fails_every_op(monkeypatch, capsys):
    wl = workloads.WORKLOADS["ingest-write"]
    expect = workloads.digest(wl.reference(5))
    original = DatasetIngest.run

    def tampered(self):
        result = original(self)
        rec = result.records[7]
        result.records[7] = replace(rec, end_time=rec.end_time + 1e-6)
        return result

    monkeypatch.setattr(DatasetIngest, "run", tampered)
    code, out = child_in_process(
        capsys, "--workload", "ingest-write", "--seed", "5", "--expect-digest", expect
    )
    assert code == 1
    assert out["ops_failed"] == out["ops"] == 640
    assert out["checks"]["digest_matches_reference"] is False


def test_dropped_read_fails_every_op(monkeypatch, capsys):
    original = Simulation.start_flow
    started = []

    def dropping(self, size, path, on_complete, *args, **kwargs):
        started.append(size)
        if len(started) == 100:
            return None  # this read's transfer never starts, so never ends
        return original(self, size, path, on_complete, *args, **kwargs)

    monkeypatch.setattr(Simulation, "start_flow", dropping)
    code, out = child_in_process(capsys, "--workload", "fig7-single", "--seed", "5")
    assert code == 1
    assert out["ops_failed"] == out["ops"] == 10240
    assert out["checks"]["all_ops_completed"] is False
    assert out["checks"]["bytes_conserved"] is False


def test_failed_sample_fails_the_run(monkeypatch, capsys):
    sample = {
        "ops": 640, "ops_failed": 640, "fresh_interpreter": True, "digest": "e",
        "reference_digest": "d", "checks": {"digest_matches_reference": False},
        "setup_s": 1.0, "wall_s": 1.0, "peak_rss_mb": 100.0,
    }
    monkeypatch.setattr(run, "run_child", lambda *args: sample)
    assert run.main(["--workload", "ingest-write", "--seed", "0", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result == {"correct": False, "attempted": 640, "failed": 640, "metrics": {}}


def test_setup_is_timed_from_a_fresh_interpreter(capsys):
    sample = run.run_child("ingest-write", 0)
    assert sample["fresh_interpreter"]
    assert sample["setup_s"] > sample["import_s"] + sample["layout_s"]
    assert sample["import_s"] > 0
    # In this process repro is imported already, and the sample says so.
    _, warm = child_in_process(capsys, "--workload", "ingest-write", "--seed", "0")
    assert warm["fresh_interpreter"] is False
    assert not run.sample_ok(warm)


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "fig7-single", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_end_to_end_result_line():
    proc = bench("--workload", "ingest-write", "--seed", str(HELD_OUT_SEED),
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3 * 640
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.fixture(scope="module")
def traced() -> dict[str, dict[str, float]]:
    """Every workload's per-layer metrics on a seed not used for tuning."""
    out = {}
    for name in run.WORKLOADS:
        proc = bench("--workload", name, "--seed", str(HELD_OUT_SEED),
                     "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert {k: m["unit"] for k, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["per_layer"]
        }
        out[name] = {k: m["value"] for k, m in result["metrics"].items()}
    return out


def test_traced_parts_sum_to_the_whole(traced):
    for name, m in traced.items():
        shares = sum(v for k, v in m.items() if k.startswith("share."))
        assert shares == pytest.approx(1.0, abs=0.02), name
        assert 0 <= m["unattributed_s"] <= child.UNATTRIBUTED_TOLERANCE * m["trace.wall_s"]
        assert m["trace.overhead_ratio"] > 0


def test_counts_confirm_the_workload_split(traced):
    assert traced["ingest-write"]["engine.vectorized_solves"] > 0
    assert traced["fig7-single"]["engine.vectorized_solves"] == 0
    for name, m in traced.items():
        assert (m["core.next_task_calls"] > 0) == (name == "fig11-dynamic"), name
        assert m["engine.parallel_solves"] == 0
    # Algorithm 1 takes about twice the time of the max-flow matching; as
    # a share of wall_s the two are about equal (see README.md).
    assert traced["fig9-multi"]["core.match_s"] > traced["fig7-single"]["core.match_s"]
    assert traced["fig9-multi"]["core.augmentations"] == 0
    assert traced["fig7-single"]["core.augmentations"] > 0
