"""Tests for the OPS200 float-identity/async-blocking pass (`opass-verify`).

Fixture snippets live in ``tests/data/lint/`` as violating/clean pairs,
same convention as OPS101–OPS103.  The OPS204 bad fixture puts the
defect two call levels below the site that flags, so only the
interprocedural reachability walk can catch it.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

from repro.tools.api import ALL_RULES
from repro.tools.cache import AnalysisCache, CacheStats
from repro.tools.concurrency import CONCURRENCY_RULES
from repro.tools.config import (
    DEFAULT_WALLCLOCK_ALLOW,
    LintConfig,
    config_from_table,
    load_config,
)
from repro.tools.model import parse_reassoc_pragmas
from repro.tools.sarif import to_sarif
from repro.tools.verify import (
    EXIT_OK,
    EXIT_VIOLATIONS,
    _changed_files,
    main,
    verify_paths,
    verify_source,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "data" / "lint"

CONCURRENCY_RULE_IDS = ("OPS203", "OPS204")


def verify_fixture(name: str):
    path = FIXTURES / f"{name}.py"
    return verify_source(path.read_text(encoding="utf-8"), path=str(path))


def rules_in(report):
    return {v.rule for v in report.violations}


# -- fixture pairs -----------------------------------------------------------


class TestFixturePairs:
    @pytest.mark.parametrize(
        "name, rule",
        [
            ("ops203_bad", "OPS203"),
            ("ops204_bad", "OPS204"),
        ],
    )
    def test_bad_fixture_trips_exactly_its_rule(self, name, rule):
        report = verify_fixture(name)
        assert rules_in(report) == {rule}, report.render()

    @pytest.mark.parametrize("rule", CONCURRENCY_RULE_IDS)
    def test_clean_fixture_is_clean(self, rule):
        report = verify_fixture(f"{rule.lower()}_ok")
        assert report.ok, report.render()

    def test_rule_table_registered(self):
        assert set(CONCURRENCY_RULE_IDS) == set(CONCURRENCY_RULES)
        assert set(CONCURRENCY_RULES) <= set(ALL_RULES)


# -- interprocedural depth ---------------------------------------------------


class TestInterproceduralDepth:
    """The defect sits ≥2 call levels from the flagged site."""

    def test_ops204_chain_through_sync_callees(self):
        report = verify_fixture("ops204_bad")
        msgs = {v.line: v.message for v in report.violations}
        # the call site in the async body flags, naming the sync chain
        assert any(
            "_commit" in m and "_flush" in m and "time.sleep" in m
            for m in msgs.values()
        ), msgs
        # direct blocking I/O in an async body flags at its own line
        assert any("blocks the event loop" in m for m in msgs.values()), msgs


# -- rule specifics ----------------------------------------------------------


class TestOPS203:
    def test_dtype_int_division_and_reduction_all_flag(self):
        report = verify_fixture("ops203_bad")
        msgs = [v.message for v in report.violations]
        assert any("dtype 'float32'" in m for m in msgs), msgs
        assert any("reassociating reduction" in m for m in msgs), msgs
        assert any("int/int true division" in m for m in msgs), msgs

    def test_rules_only_fire_in_registered_kernel_modules(self):
        source = (FIXTURES / "ops203_bad.py").read_text(encoding="utf-8")
        relocated = source.replace(
            "module=repro.simulate.vectorized", "module=repro.simulate.other"
        )
        report = verify_source(relocated, path="<relocated>")
        assert report.ok, report.render()

    def test_reassoc_pragma_without_reason_is_ops000(self):
        source = (
            "# opass-lint: module=repro.simulate.vectorized\n"
            "import numpy as np\n"
            "def f(xs):\n"
            "    return np.sum(xs)  # opass: reassoc-ok\n"
        )
        report = verify_source(source, path="<s>")
        # the malformed pragma is reported AND does not waive the reduction
        assert rules_in(report) == {"OPS000", "OPS203"}, report.render()
        msgs = [v.message for v in report.violations]
        assert any("missing reason" in m for m in msgs), msgs

    def test_parse_reassoc_pragmas_roundtrip(self):
        lines, errors = parse_reassoc_pragmas(
            "x = 1\ny = s.sum()  # opass: reassoc-ok -- exact\nz = 2\n", "<s>"
        )
        assert lines == {2} and errors == []


class TestOPS204:
    def test_zero_arg_join_flags_but_str_join_does_not(self):
        source = (
            "# opass-lint: module=repro.simulate.svc\n"
            "async def a(pool, parts):\n"
            "    pool.join()\n"
            "    return ','.join(parts)\n"
        )
        report = verify_source(source, path="<s>")
        assert len(report.violations) == 1, report.render()
        assert "'.join()' may block" in report.violations[0].message


# -- real tree ---------------------------------------------------------------


class TestRealTree:
    def test_src_is_clean_under_the_concurrency_pass(self):
        report = verify_paths([REPO_ROOT / "src"])
        assert report.ok, report.render()

    def test_kernel_reassoc_waivers_present(self):
        # The water-filling kernels count with np.count_nonzero and need
        # no waiver; their pragmas, if any, must still parse.
        for rel, required in (
            (("src", "repro", "simulate", "vectorized.py"), False),
            (("src", "repro", "core", "flownetwork.py"), True),
        ):
            source = Path(REPO_ROOT, *rel).read_text(encoding="utf-8")
            lines, errors = parse_reassoc_pragmas(source, str(Path(*rel)))
            if required:
                assert lines, f"expected reassoc-ok waivers in {rel}"
            assert errors == []


# -- config ------------------------------------------------------------------


class TestConfig:
    def test_wallclock_allow_has_a_single_source_of_truth(self):
        import tomllib

        pyproject = REPO_ROOT / "pyproject.toml"
        table = tomllib.loads(pyproject.read_text(encoding="utf-8"))["tool"][
            "opass-lint"
        ]
        # not mirrored in pyproject: code default is the only source
        assert "wallclock-allow" not in table
        assert load_config(pyproject).wallclock_allow == DEFAULT_WALLCLOCK_ALLOW
        assert LintConfig().wallclock_allow == DEFAULT_WALLCLOCK_ALLOW

    def test_concurrency_registries_configurable(self):
        cfg = config_from_table({"kernel-modules": ["repro.core.kernels"]})
        assert cfg.kernel_modules == ("repro.core.kernels",)

    def test_registry_changes_alter_the_fingerprint(self):
        base = LintConfig()
        other = config_from_table({"kernel-modules": ["repro.other"]})
        assert base.fingerprint() != other.fingerprint()

    def test_scoping_can_disable_a_concurrency_rule(self):
        source = (FIXTURES / "ops204_bad.py").read_text(encoding="utf-8")
        cfg = config_from_table({"scopes": {"OPS204": ["nonexistent"]}})
        report = verify_source(source, path="<s>", config=cfg)
        assert report.ok, report.render()


# -- outputs and cache -------------------------------------------------------


class TestOutputsAndCache:
    def test_sarif_rule_table_covers_the_ops200_series(self):
        report = verify_fixture("ops203_bad")
        sarif = to_sarif(report)
        rules = {
            r["id"]: r
            for r in sarif["runs"][0]["tool"]["driver"]["rules"]
        }
        for rule in CONCURRENCY_RULE_IDS:
            assert rule in rules
        results = sarif["runs"][0]["results"]
        assert {r["ruleId"] for r in results} == {"OPS203"}

    def test_list_rules_includes_concurrency(self, capsys):
        assert main(["--list-rules"]) == EXIT_OK
        out = capsys.readouterr().out
        for rule in CONCURRENCY_RULE_IDS:
            assert rule in out

    def test_concurrency_findings_cached_and_replayed(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        for name in ("ops203_bad", "ops204_bad"):
            (tree / f"{name}.py").write_text(
                (FIXTURES / f"{name}.py").read_text(encoding="utf-8"),
                encoding="utf-8",
            )

        cold_stats = CacheStats()
        cold = verify_paths(
            [tree], cache=AnalysisCache(tmp_path / "cache", cold_stats)
        )
        warm_stats = CacheStats()
        warm = verify_paths(
            [tree], cache=AnalysisCache(tmp_path / "cache", warm_stats)
        )
        assert cold_stats.check_misses == 2 and warm_stats.check_misses == 0
        assert warm_stats.summary_misses == 0
        assert [v.render() for v in warm.violations] == [
            v.render() for v in cold.violations
        ]
        assert rules_in(warm) == {"OPS203", "OPS204"}

    def test_cli_exit_codes_cover_concurrency_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            (FIXTURES / "ops204_bad.py").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        assert main([str(bad), "--no-cache", "--format", "json"]) == EXIT_VIOLATIONS
        data = json.loads(capsys.readouterr().out)
        assert {v["rule"] for v in data["violations"]} == {"OPS204"}


# -- --changed robustness ----------------------------------------------------


def _git(repo: Path, *args: str) -> None:
    subprocess.run(
        ["git", *args],
        cwd=repo,
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@t",
            "HOME": str(repo),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )


class TestChangedRobustness:
    def test_unborn_head_counts_tracked_and_untracked_files(self, tmp_path):
        repo = tmp_path / "repo"
        repo.mkdir()
        _git(repo, "init", "-q")
        (repo / "tracked.py").write_text("x = 1\n", encoding="utf-8")
        _git(repo, "add", "tracked.py")
        (repo / "untracked.py").write_text("y = 2\n", encoding="utf-8")
        changed = _changed_files(repo)
        assert changed is not None
        names = {p.name for p in changed}
        assert {"tracked.py", "untracked.py"} <= names

    def test_detached_head_still_diffs(self, tmp_path):
        repo = tmp_path / "repo"
        repo.mkdir()
        _git(repo, "init", "-q")
        (repo / "a.py").write_text("a = 1\n", encoding="utf-8")
        _git(repo, "add", "a.py")
        _git(repo, "commit", "-q", "-m", "c1")
        _git(repo, "checkout", "-q", "--detach", "HEAD")
        (repo / "a.py").write_text("a = 2\n", encoding="utf-8")
        changed = _changed_files(repo)
        assert changed is not None
        assert {p.name for p in changed} == {"a.py"}

    def test_changed_flag_works_without_any_commit(self, tmp_path, capsys):
        repo = tmp_path / "repo"
        repo.mkdir()
        _git(repo, "init", "-q")
        clean = repo / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        _git(repo, "add", "clean.py")
        assert main([str(clean), "--no-cache", "--changed"]) == EXIT_OK
