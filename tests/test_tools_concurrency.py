"""Tests for the OPS203 float-identity pass (`opass-verify`).

Fixture snippets live in ``tests/data/lint/`` as violating/clean pairs,
same convention as OPS101–OPS103.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.tools.api import ALL_RULES
from repro.tools.concurrency import CONCURRENCY_RULES
from repro.tools.config import (
    DEFAULT_WALLCLOCK_ALLOW,
    ConfigError,
    LintConfig,
    config_from_table,
    load_config,
)
from repro.tools.model import parse_pragmas
from repro.tools.sarif import to_sarif
from repro.tools.verify import (
    EXIT_OK,
    EXIT_VIOLATIONS,
    main,
    verify_paths,
    verify_source,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "data" / "lint"

CONCURRENCY_RULE_IDS = ("OPS203",)


def verify_fixture(name: str):
    path = FIXTURES / f"{name}.py"
    return verify_source(path.read_text(encoding="utf-8"), path=str(path))


def rules_in(report):
    return {v.rule for v in report.violations}


# -- fixture pairs -----------------------------------------------------------


class TestFixturePairs:
    @pytest.mark.parametrize("name, rule", [("ops203_bad", "OPS203")])
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
        index = parse_pragmas(
            "x = 1\ny = s.sum()  # opass: reassoc-ok -- exact\nz = 2\n", "<s>", None
        )
        assert index.markers == {"reassoc-ok": {2}} and index.errors == []


# -- real tree ---------------------------------------------------------------


class TestRealTree:
    def test_src_is_clean_under_the_concurrency_pass(self):
        report = verify_paths([REPO_ROOT / "src"])
        assert report.ok, report.render()

    def test_kernel_reassoc_waivers_present(self):
        # Neither kernel module needs a waiver today: the water-filling
        # kernels count with np.count_nonzero and the max-flow solvers sum
        # nothing in numpy.  Their pragmas, if any, must still parse.
        for rel, required in (
            (("src", "repro", "simulate", "vectorized.py"), False),
            (("src", "repro", "core", "flownetwork.py"), False),
        ):
            source = Path(REPO_ROOT, *rel).read_text(encoding="utf-8")
            index = parse_pragmas(source, str(Path(*rel)), frozenset(ALL_RULES))
            if required:
                assert index.markers.get("reassoc-ok"), (
                    f"expected reassoc-ok waivers in {rel}"
                )
            assert index.errors == []


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
        with pytest.raises(ConfigError, match="wallclock-allow"):
            config_from_table({"wallclock-allow": ["repro.simulate.engine"]})

    def test_concurrency_registries_configurable(self):
        source = (FIXTURES / "ops203_bad.py").read_text(encoding="utf-8")
        relocated = source.replace(
            "module=repro.simulate.vectorized", "module=repro.core.kernels"
        )
        assert verify_source(relocated, path="<s>").ok
        cfg = LintConfig(kernel_modules=("repro.core.kernels",))
        report = verify_source(relocated, path="<s>", config=cfg)
        assert rules_in(report) == {"OPS203"}, report.render()

    def test_scoping_can_disable_a_concurrency_rule(self):
        source = (FIXTURES / "ops203_bad.py").read_text(encoding="utf-8")
        scopes = {**LintConfig().scopes, "OPS203": ("nonexistent",)}
        report = verify_source(source, path="<s>", config=LintConfig(scopes=scopes))
        assert report.ok, report.render()


# -- outputs -------------------------------------------------------------


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

    def test_cli_exit_codes_cover_concurrency_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            (FIXTURES / "ops203_bad.py").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        assert main([str(bad), "--format", "json"]) == EXIT_VIOLATIONS
        data = json.loads(capsys.readouterr().out)
        assert {v["rule"] for v in data["violations"]} == {"OPS203"}
