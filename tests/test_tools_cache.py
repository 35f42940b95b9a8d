"""Tests for the `opass-verify` incremental cache (``.opass-cache/``).

The acceptance bar: a warm run over an unchanged tree recomputes *no*
module summary (all counters are hits, and the summarizer is provably
never invoked), and editing a leaf module re-checks exactly the modules
whose import closure contains it.
"""

from __future__ import annotations

import pytest

import repro.tools.verify as verify_mod
from repro.tools.cache import AnalysisCache, CacheStats, module_key
from repro.tools.config import LintConfig
from repro.tools.verify import verify_paths

A_SRC = (
    "from repro.core.b import mid\n"
    "def top(cluster):\n"
    "    return mid(cluster)\n"
)
B_SRC = (
    "from repro.core.c import leaf\n"
    "def mid(cluster):\n"
    "    return leaf(cluster)\n"
)
C_SRC = "def leaf(cluster):\n    return len(cluster)\n"
D_SRC = "def lonely():\n    return 42\n"


@pytest.fixture()
def tree(tmp_path):
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(A_SRC, encoding="utf-8")
    (pkg / "b.py").write_text(B_SRC, encoding="utf-8")
    (pkg / "c.py").write_text(C_SRC, encoding="utf-8")
    (pkg / "d.py").write_text(D_SRC, encoding="utf-8")
    return tmp_path


def run(tree, tmp_path, config=None):
    stats = CacheStats()
    cache = AnalysisCache(tmp_path / "cache", stats)
    report = verify_paths(
        [str(tree / "src")], config=config or LintConfig(), cache=cache
    )
    return report, stats


class TestWarmPath:
    def test_cold_then_warm_counters(self, tree, tmp_path):
        _, cold = run(tree, tmp_path)
        assert cold.summary_hits == 0 and cold.summary_misses == 4
        assert cold.check_hits == 0 and cold.check_misses == 4

        _, warm = run(tree, tmp_path)
        assert warm.summary_misses == 0 and warm.summary_hits == 4
        assert warm.check_misses == 0 and warm.check_hits == 4

    def test_warm_run_never_invokes_the_summarizer(self, tree, tmp_path, monkeypatch):
        run(tree, tmp_path)

        def boom(decl):  # pragma: no cover - must not run
            raise AssertionError(f"summarize_module called for {decl.module}")

        monkeypatch.setattr(verify_mod, "summarize_module", boom)
        report, warm = run(tree, tmp_path)
        assert report.ok and warm.summary_misses == 0

    def test_warm_report_is_identical(self, tree, tmp_path):
        cold_report, _ = run(tree, tmp_path)
        warm_report, _ = run(tree, tmp_path)
        assert cold_report.to_json() == warm_report.to_json()

    def test_cached_violations_replay_identically(self, tree, tmp_path):
        # make c.py mutate the cluster so the pure-module rule fires in a
        pkg = tree / "src" / "repro" / "core"
        (pkg / "opass.py").write_text(
            "from repro.core.c import leaf\n"
            "def assign(cluster: 'Cluster', tasks):\n"
            "    poke(cluster)\n"
            "    return []\n"
            "def poke(cluster):\n"
            "    cluster.load = {}\n",
            encoding="utf-8",
        )
        cold_report, cold = run(tree, tmp_path)
        assert not cold_report.ok
        warm_report, warm = run(tree, tmp_path)
        assert warm.check_misses == 0
        assert warm_report.to_json() == cold_report.to_json()


class TestInvalidation:
    def test_leaf_edit_reanalyzes_only_dependents(self, tree, tmp_path):
        run(tree, tmp_path)
        pkg = tree / "src" / "repro" / "core"
        (pkg / "c.py").write_text(
            C_SRC + "\ndef extra():\n    return 0\n", encoding="utf-8"
        )
        _, stats = run(tree, tmp_path)
        # only c's summary is recomputed ...
        assert stats.summary_misses == 1 and stats.summary_hits == 3
        # ... but every module whose closure contains c is re-checked,
        # while the unrelated module d replays from the cache
        assert stats.check_misses == 3 and stats.check_hits == 1

    def test_check_config_edit_keeps_summaries_warm(self, tree, tmp_path):
        # summaries are config-independent (raw axis/taint facts), so a
        # check-relevant edit re-runs the checks but re-parses nothing
        run(tree, tmp_path)
        other = LintConfig(decision_packages=("core", "dfs", "simulate"))
        _, stats = run(tree, tmp_path, config=other)
        assert stats.summary_hits == 4 and stats.summary_misses == 0
        assert stats.check_hits == 0 and stats.check_misses == 4

    def test_lint_only_config_edit_rechecks_nothing(self, tree, tmp_path):
        # knobs only opass-lint reads are outside the check fingerprint:
        # the warm run after the edit must stay fully cached
        run(tree, tmp_path)
        other = LintConfig(float_attrs=("weird",), remove_allow=("xs",))
        _, stats = run(tree, tmp_path, config=other)
        assert stats.summary_misses == 0 and stats.summary_hits == 4
        assert stats.check_misses == 0 and stats.check_hits == 4

    def test_contract_edit_rechecks_only_the_declaring_module(self, tree, tmp_path):
        run(tree, tmp_path)
        contracts = dict(LintConfig().cost_contracts)
        contracts["repro.core.c.leaf"] = "O(1)"
        _, stats = run(tree, tmp_path, config=LintConfig(cost_contracts=contracts))
        assert stats.summary_misses == 0
        # only c.py declares the newly contracted function; a, b and d
        # replay their check results from the cache untouched
        assert stats.check_misses == 1 and stats.check_hits == 3

    def test_module_keys_differ_by_source_only(self):
        # summaries are config-independent, so only the source keys them
        assert module_key("x = 1\n") != module_key("x = 2\n")
        assert module_key("x = 1\n") == module_key("x = 1\n")


class TestRobustness:
    def test_corrupt_cache_entries_are_misses(self, tree, tmp_path):
        _, cold = run(tree, tmp_path)
        for entry in (tmp_path / "cache").rglob("*.json"):
            entry.write_text("{ not json", encoding="utf-8")
        report, stats = run(tree, tmp_path)
        assert report.ok
        assert stats.summary_hits == 0 and stats.summary_misses == 4

    def test_disabled_cache_never_hits(self, tree, tmp_path):
        stats = CacheStats()
        cache = AnalysisCache(None, stats)
        verify_paths([str(tree / "src")], config=LintConfig(), cache=cache)
        verify_paths([str(tree / "src")], config=LintConfig(), cache=cache)
        assert stats.summary_hits == 0 and stats.check_hits == 0

    def test_readonly_cache_dir_does_not_fail(self, tree, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        cache_dir.chmod(0o500)
        try:
            report, _ = run(tree, tmp_path)
            assert report.ok
        finally:
            cache_dir.chmod(0o700)
