"""PR 9 regression contract: throughput must not collapse with scale.

Before event coalescing and the pessimistic retire-time sweep (the
sweep now pops only the completion-heap entries whose retire bound has
come due, plus the tie group), the engine's per-event cost grew with the
active flow count — a hidden O(n)-per-event scan — so 2048/4096-node
runs collapsed to ~0.55x of the 512-node events/s.  Such a scan changes
no work counter, so ``tests/test_work_counter_growth.py`` cannot see
it; this test is the only one that does.  It pins the fix with the
bench's own min-of-3 protocol: the simulation is deterministic, so the
fastest of three repeats strips scheduler/frequency noise, and
measuring both scales in one session puts that noise on both sides of
the ratio.

The ratio gate (not an absolute events/s gate) is what makes this
runnable on shared CI hardware: a slow machine slows both scales alike.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from bench_sim_performance import COLLAPSE_FLOORS, run_scaling  # noqa: E402


def test_2048_node_throughput_holds_against_512() -> None:
    # The measured frontier sits just above the floor, so a single
    # unlucky scheduling burst mid-session can push one side under it.
    # A real O(n)-per-event regression fails *every* session by a wide
    # margin; re-measuring a bounded number of times rejects timing
    # flakes without loosening the contract.
    floor = COLLAPSE_FLOORS[2048]
    ratios = []
    for _ in range(3):
        rows = run_scaling(seed=0, repeats=3, scales=(512, 2048))
        by_nodes = {r["nodes"]: r for r in rows}
        ratio = (
            by_nodes[2048]["events_per_second"]
            / by_nodes[512]["events_per_second"]
        )
        if ratio >= floor:
            return
        ratios.append(ratio)
    assert False, (
        f"2048-node throughput collapsed below {floor:.2f}x of the "
        f"512-node rate in 3 independent sessions: ratios "
        f"{', '.join(f'{r:.3f}' for r in ratios)} (last session: "
        f"{by_nodes[2048]['events_per_second']:.0f} vs "
        f"{by_nodes[512]['events_per_second']:.0f} events/s)"
    )
