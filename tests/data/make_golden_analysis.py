"""Regenerate the §III analysis golden fixture.

Usage (from the repo root)::

    PYTHONPATH=src python tests/data/make_golden_analysis.py [--check]

``golden_analysis.json`` pins, as ``repr`` strings, the exact floats of
the paper's closed-form models at their defaults:

* :func:`repro.analysis.section3b_summary` (n = 512, r = 3, m = 128);
* :func:`repro.analysis.figure3_series` and
  :func:`repro.analysis.paper_figure3_series` (k = 0..20,
  m ∈ {64, 128, 256, 512});
* :func:`repro.analysis.cdf_served_chunks_total_probability` at
  n = 512, r = 3, m = 128 for a few k.

The fixture was captured while ``repro.analysis`` still imported
``scipy.stats`` at module level; the analysis functions now import it on
first call and must reproduce it exactly.  The values come from scipy's
binomial CDF, so the fixture also records the scipy version it was
captured with.  ``--check`` compares without rewriting and exits non-zero
on any byte difference.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "golden_analysis.json"

#: The k values at which the paper's total-probability sum is pinned.
TOTAL_PROBABILITY_KS = (0, 1, 4, 8, 20)


def section3b_entry() -> dict:
    from repro.analysis import section3b_summary

    s = section3b_summary()
    return {
        name: value if isinstance(value, int) else repr(value)
        for name, value in vars(s).items()
    }


def figure3_entry(rows) -> list:
    return [
        {
            "num_nodes": row.num_nodes,
            "k": row.k.tolist(),
            "cdf": [repr(p) for p in row.cdf.tolist()],
            "prob_more_than_5": repr(row.prob_more_than_5),
        }
        for row in rows
    ]


def build() -> dict:
    import scipy

    from repro.analysis import (
        cdf_served_chunks_total_probability,
        figure3_series,
        paper_figure3_series,
    )

    return {
        "scipy_version": scipy.__version__,
        "section3b_summary": section3b_entry(),
        "figure3_series": figure3_entry(figure3_series()),
        "paper_figure3_series": figure3_entry(paper_figure3_series()),
        "cdf_served_chunks_total_probability": {
            str(k): repr(cdf_served_chunks_total_probability(k, 512, 3, 128))
            for k in TOTAL_PROBABILITY_KS
        },
    }


def dumps(golden: dict) -> str:
    return json.dumps(golden, indent=1, sort_keys=True) + "\n"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed file instead of rewriting it",
    )
    args = parser.parse_args(argv)
    text = dumps(build())
    if args.check:
        if GOLDEN_PATH.read_text() != text:
            print(f"FAIL: {GOLDEN_PATH.name} no longer reproduced byte-for-byte")
            return 1
        print(f"{GOLDEN_PATH.name}: OK")
    else:
        GOLDEN_PATH.write_text(text)
        print(f"wrote {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
