"""Cold start: ``import repro`` and the simulation paths never load scipy.

scipy.stats takes about as long to import as a 512-node Fig-7 run takes to
match and simulate, and only the §III closed-form models use it.  No run
loads ``multiprocessing`` either: every solve is in-process.  The checks
run in a fresh interpreter, because any earlier test in the same pytest
run may already have loaded these modules into this one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from .test_analysis_golden import GOLDEN, assert_pinned

ROOT = Path(__file__).resolve().parent.parent

#: Runs in a fresh interpreter; prints one JSON object on its last line.
CHILD = r"""
import json
import sys

HEAVY = ("scipy", "numpy.ma", "multiprocessing")
loaded = {}

def mark(stage):
    loaded[stage] = [m for m in HEAVY if m in sys.modules]

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
    "loaded": loaded, "section3b_summary": section3b, "figure3_series": figure3,
}))
"""


def test_scipy_loads_only_for_section3_analysis():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.splitlines()[-1])
    loaded = out["loaded"]
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
    assert_pinned(out["section3b_summary"], GOLDEN["section3b_summary"])
    assert_pinned(out["figure3_series"], GOLDEN["figure3_series"])
