"""Exact-float pins of the §III closed-form models at the paper's defaults.

The approximate paper-number checks live in ``test_analysis_balance.py``
and ``test_analysis_locality.py``; this module pins every float bit for
bit against ``tests/data/golden_analysis.json`` (regenerate with
``tests/data/make_golden_analysis.py``), so a change in how or when the
models reach scipy cannot move any §III number unnoticed.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
import scipy

from repro.analysis import cdf_served_chunks_total_probability

from .data.make_golden_analysis import (
    TOTAL_PROBABILITY_KS,
    figure3_entry,
    section3b_entry,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_analysis.json").read_text()
)

#: Another scipy release may move a binomial CDF value in its last bits;
#: the pins are exact under the release the fixture was captured with.
EXACT = scipy.__version__ == GOLDEN["scipy_version"]


def _close(actual: object, expected: object) -> bool:
    if isinstance(expected, str):
        return float(actual) == pytest.approx(float(expected), rel=1e-12, abs=0.0)
    if isinstance(expected, dict):
        return actual.keys() == expected.keys() and all(
            _close(actual[k], v) for k, v in expected.items()
        )
    if isinstance(expected, list):
        return len(actual) == len(expected) and all(
            _close(a, e) for a, e in zip(actual, expected)
        )
    return actual == expected


def assert_pinned(actual: object, expected: object) -> None:
    """``actual`` equals the golden entry ``expected`` (repr floats)."""
    if EXACT:
        assert actual == expected
    else:
        assert _close(actual, expected), (actual, expected)


def test_section3b_summary_pinned():
    assert_pinned(section3b_entry(), GOLDEN["section3b_summary"])


def test_figure3_series_pinned():
    from repro.analysis import figure3_series

    assert_pinned(figure3_entry(figure3_series()), GOLDEN["figure3_series"])


def test_paper_figure3_series_pinned():
    from repro.analysis import paper_figure3_series

    assert_pinned(
        figure3_entry(paper_figure3_series()), GOLDEN["paper_figure3_series"]
    )


@pytest.mark.parametrize("k", TOTAL_PROBABILITY_KS)
def test_total_probability_sum_pinned(k):
    assert_pinned(
        repr(cdf_served_chunks_total_probability(k, 512, 3, 128)),
        GOLDEN["cdf_served_chunks_total_probability"][str(k)],
    )

