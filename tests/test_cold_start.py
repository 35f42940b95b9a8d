"""Cold start: a run imports only the modules it calls.

scipy.stats takes about as long to import as a 512-node Fig-7 run takes to
match and simulate, and only the §III closed-form models use it.  No run
loads ``multiprocessing`` either: every solve is in-process.  Every package
surface is lazy (``repro._lazy``), so ``import repro`` loads no submodule,
and a single-data comparison loads the few dozen ``repro`` modules it calls
and none of the extensions.  The checks run in a fresh interpreter, because
any earlier test in the same pytest run may already have loaded these
modules into this one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from .test_analysis_golden import GOLDEN, assert_pinned

ROOT = Path(__file__).resolve().parent.parent

#: Runs in a fresh interpreter; prints one JSON object on its last line.
CHILD = r"""
import json
import sys

HEAVY = ("scipy", "numpy.ma", "multiprocessing")
loaded = {}
repro_loaded = {}

def mark(stage):
    loaded[stage] = [m for m in HEAVY if m in sys.modules]
    repro_loaded[stage] = sorted(m for m in sys.modules if m.split(".")[0] == "repro")

import repro
mark("import repro")
import repro.cli
mark("import repro.cli")
import repro.experiments
mark("import repro.experiments")

from repro.experiments import run_single_data_comparison
run_single_data_comparison(32, seed=0)
mark("run_single_data_comparison")

from repro.core import ProcessPlacement
from repro.dfs import (
    ClusterSpec, DistributedFileSystem, HdfsWriterLocalPlacement,
    uniform_dataset,
)
from repro.dfs.chunk import MB
from repro.simulate import DatasetIngest
fs = DistributedFileSystem(
    ClusterSpec.homogeneous(8), placement=HdfsWriterLocalPlacement(), seed=7
)
DatasetIngest(
    fs, ProcessPlacement.one_per_node(8),
    uniform_dataset("w", 24, chunk_size=16 * MB), seed=1,
).run()
mark("DatasetIngest")

import numpy as np
from repro.core.flownetwork import FlowNetwork
m, n = 20, 600
net = FlowNetwork(m + n + 2)
rng = np.random.default_rng(7)
for r in range(m):
    net.add_edge(0, 1 + r, 30)
for task in range(n):
    net.add_edge(1 + m + task, m + n + 1, 1)
    for r in rng.choice(m, size=2, replace=False):
        net.add_edge(1 + int(r), 1 + m + task, 1)
assert net.dinic(0, m + n + 1) == n
mark("dinic")

sys.path.insert(0, "tests/data")
from make_golden_analysis import figure3_entry, section3b_entry
from repro import figure3_series
section3b = section3b_entry()
mark("section3b_summary")
figure3 = figure3_entry(figure3_series())
print(json.dumps({
    "loaded": loaded, "repro_loaded": repro_loaded,
    "section3b_summary": section3b, "figure3_series": figure3,
}))
"""

#: A single-data comparison alone in a fresh interpreter: the ``repro``
#: modules its import loads, and those loaded once it has run.
RUN_CHILD = r"""
import json
import sys

def repro_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "repro")

from repro.experiments import run_single_data_comparison
imported = repro_modules()
run_single_data_comparison(32, seed=0)
print(json.dumps({"imported": imported, "ran": repro_modules()}))
"""

#: Extensions and other applications no single-data comparison calls.
NOT_LOADED_BY_A_RUN = (
    "repro.apps.multiblock_io",
    "repro.core.mincostflow",
    "repro.core.quincy",
    "repro.core.remote_balance",
    "repro.dfs.rebalancer",
    "repro.dfs.snapshot",
    "repro.experiments.overhead",
    "repro.parallel.dlmpi",
    "repro.parallel.spmd",
)


def _fresh_interpreter(code: str) -> dict:
    """Run ``code`` in a new interpreter; the JSON on its last output line."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def staged():
    """:data:`CHILD`'s output, shared by the tests that read its stages."""
    return _fresh_interpreter(CHILD)


def test_scipy_loads_only_for_section3_analysis(staged):
    loaded = staged["loaded"]
    for stage in (
        "import repro",
        "import repro.cli",
        "import repro.experiments",
        "run_single_data_comparison",
        "DatasetIngest",
    ):
        assert "scipy" not in loaded[stage], stage
    # A large Dinic solve loads none of them either.
    assert loaded["dinic"] == []
    assert "scipy" in loaded["section3b_summary"]
    assert_pinned(staged["section3b_summary"], GOLDEN["section3b_summary"])
    assert_pinned(staged["figure3_series"], GOLDEN["figure3_series"])


def test_package_surfaces_load_no_submodule_until_asked(staged):
    repro_loaded = staged["repro_loaded"]
    assert repro_loaded["import repro"] == ["repro", "repro._lazy"]
    # The CLI loads the DFS and the locality graph its commands share;
    # each command imports the rest of what it runs.
    assert len(repro_loaded["import repro.cli"]) == 18
    assert not {"repro.apps", "repro.parallel", "repro.viz"} & set(
        repro_loaded["import repro.cli"]
    )


def test_single_data_run_loads_only_what_its_import_did():
    out = _fresh_interpreter(RUN_CHILD)
    # Nothing is first imported inside the run, where it would be timed
    # as graph build, matching or simulation.
    assert out["ran"] == out["imported"]
    assert len(out["ran"]) == 41
    assert not set(NOT_LOADED_BY_A_RUN) & set(out["ran"])
