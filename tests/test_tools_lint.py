"""Tests for `opass-lint` (repro.tools): rules, suppressions, config, CLI.

Fixture snippets live in ``tests/data/lint/`` as violating/clean pairs —
``opsNNN_bad.py`` must trip exactly its rule, ``opsNNN_ok.py`` must be
clean.  A ``# opass-lint: module=...`` directive in each fixture places
it inside the package whose scope the rule targets.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.tools.api import JSON_SCHEMA_VERSION, lint_file, lint_paths, lint_source
from repro.tools.checks import RULES
from repro.tools.config import (
    ConfigError,
    DEFAULT_LAYERS,
    LintConfig,
    config_from_table,
    load_config,
)
from repro.tools.lint import EXIT_ERROR, EXIT_OK, EXIT_VIOLATIONS, main

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "data" / "lint"

ALL_RULES = ("OPS001", "OPS002", "OPS003", "OPS004", "OPS005", "OPS006")


def rules_in(report):
    return {v.rule for v in report.violations}


class TestFixturePairs:
    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_bad_fixture_trips_exactly_its_rule(self, rule):
        report = lint_file(FIXTURES / f"{rule.lower()}_bad.py")
        assert rules_in(report) == {rule}, report.render()

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_clean_fixture_is_clean(self, rule):
        report = lint_file(FIXTURES / f"{rule.lower()}_ok.py")
        assert report.ok, report.render()

    def test_kernel_regression_fixture(self):
        """OPS005 catches scalar pop(0)/remove regressions in the
        vectorized kernels; the masked-array idiom stays clean."""
        bad = lint_file(FIXTURES / "ops005_kernel_bad.py")
        assert rules_in(bad) == {"OPS005"}, bad.render()
        assert len(bad.violations) == 2, bad.render()
        ok = lint_file(FIXTURES / "ops005_kernel_ok.py")
        assert ok.ok, ok.render()

    def test_bad_fixtures_flag_every_occurrence(self):
        # ops005_bad has four distinct banned patterns, one finding each
        report = lint_file(FIXTURES / "ops005_bad.py")
        assert len(report.violations) == 4, report.render()
        # ops001_bad: stdlib import + shuffle call + three numpy misuses
        report = lint_file(FIXTURES / "ops001_bad.py")
        assert len(report.violations) == 5, report.render()


class TestRuleDetails:
    def test_ops001_allows_injected_generator(self):
        report = lint_source(
            "def f(seed):\n"
            "    import numpy as np\n"
            "    return np.random.default_rng(seed)\n",
            module="repro.simulate.x",
        )
        assert report.ok, report.render()

    def test_ops002_allowlisted_module_is_exempt(self):
        source = "import time\n\ndef f():\n    return time.perf_counter()\n"
        flagged = lint_source(source, module="repro.simulate.engine")
        exempt = lint_source(source, module="repro.simulate.perf")
        assert rules_in(flagged) == {"OPS002"}
        assert exempt.ok

    def test_ops002_out_of_scope_package_is_exempt(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        report = lint_source(source, module="repro.experiments.x")
        assert report.ok, report.render()

    def test_ops003_setcomp_over_set_is_exempt(self):
        # a set built from a set is closed under reordering
        report = lint_source(
            "def f(s: set):\n    return {x + 1 for x in s}\n",
            module="repro.core.x",
        )
        assert report.ok, report.render()

    def test_ops003_self_attribute_inference(self):
        report = lint_source(
            "class P:\n"
            "    def __init__(self):\n"
            "        self._pending = set()\n"
            "    def order(self):\n"
            "        return [t for t in self._pending]\n",
            module="repro.core.x",
        )
        assert rules_in(report) == {"OPS003"}, report.render()

    def test_ops004_ordering_compares_are_fine(self):
        report = lint_source(
            "def f(sim):\n    return sim.now >= 1.5 or sim.now < 0.5\n",
            module="repro.simulate.x",
        )
        assert report.ok, report.render()

    def test_ops005_remove_allow_is_configurable(self):
        source = "def f(self, flow):\n    self._registry.remove(flow)\n"
        default = lint_source(source, module="repro.simulate.x")
        custom = lint_source(
            source,
            module="repro.simulate.x",
            config=LintConfig(remove_allow=("_registry",)),
        )
        assert rules_in(default) == {"OPS005"}
        assert custom.ok

    def test_ops006_layering_both_directions(self):
        up = lint_source(
            "from repro.experiments.dynamic import x\n", module="repro.dfs.y"
        )
        down = lint_source(
            "from repro.dfs.chunk import ChunkId\n", module="repro.experiments.y"
        )
        assert rules_in(up) == {"OPS006"}
        assert down.ok

    def test_ops006_relative_imports_resolve(self):
        report = lint_source(
            "from ..simulate.runner import Wait\n", module="repro.core.policy"
        )
        assert rules_in(report) == {"OPS006"}, report.render()

    def test_ops006_nothing_imports_tools(self):
        report = lint_source(
            "from repro.tools.api import lint_paths\n", module="repro.cli"
        )
        assert rules_in(report) == {"OPS006"}


class TestSuppressions:
    SOURCE = (
        "import numpy as np\n"
        "def f():\n"
        "    return np.random.default_rng(7){pragma}\n"
    )

    def test_valid_suppression_moves_violation_aside(self):
        report = lint_source(
            self.SOURCE.format(pragma="  # opass: ignore[OPS001] -- fixed demo seed"),
            module="repro.simulate.x",
        )
        assert report.ok
        assert [v.rule for v in report.suppressed] == ["OPS001"]
        assert report.suppressed[0].reason == "fixed demo seed"

    def test_missing_reason_is_ops000(self):
        report = lint_source(
            self.SOURCE.format(pragma="  # opass: ignore[OPS001]"),
            module="repro.simulate.x",
        )
        assert rules_in(report) == {"OPS000", "OPS001"}, report.render()

    def test_unknown_rule_id_is_ops000(self):
        report = lint_source(
            self.SOURCE.format(pragma="  # opass: ignore[OPS999] -- nope"),
            module="repro.simulate.x",
        )
        assert "OPS000" in rules_in(report)

    def test_suppression_only_covers_listed_rules(self):
        report = lint_source(
            self.SOURCE.format(pragma="  # opass: ignore[OPS002] -- wrong rule"),
            module="repro.simulate.x",
        )
        assert rules_in(report) == {"OPS001"}

    def test_multi_rule_suppression(self):
        source = (
            "import time\n"
            "import numpy as np\n"
            "def f():\n"
            "    return np.random.default_rng(1), time.time()  "
            "# opass: ignore[OPS001,OPS002] -- fixture exercising both\n"
        )
        report = lint_source(source, module="repro.simulate.x")
        assert report.ok, report.render()
        assert {v.rule for v in report.suppressed} == {"OPS001", "OPS002"}


class TestConfig:
    def test_defaults_without_pyproject(self, tmp_path):
        config = load_config(tmp_path / "pyproject.toml")
        assert config.layers == DEFAULT_LAYERS

    def test_repo_pyproject_parses(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        assert config.layers["core"] < config.layers["simulate"]
        assert "repro.simulate.perf" in config.wallclock_allow
        assert "_alloc" in config.remove_allow

    @pytest.mark.parametrize(
        "key",
        [
            "wallclock-alow",  # a typo
            # knobs that live only in code: a pyproject still setting one
            # fails and names the key instead of being silently ignored
            "wallclock-allow",
            "float-attrs",
            "scopes",
            "pure-modules",
            "protected-types",
            "decision-packages",
            "kernel-modules",
            "cost-contracts",
            "small-axes",
            "contract-echo",
        ],
    )
    def test_unknown_key_rejected(self, key, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(f"[tool.opass-lint]\n{key} = []\n")
        with pytest.raises(ConfigError, match=f"unknown .*'{key}'"):
            load_config(pyproject)

    def test_bad_layers_rejected(self):
        with pytest.raises(ConfigError, match="layers"):
            config_from_table({"layers": {"core": "low"}})

    def test_layers_override_changes_verdict(self):
        source = "from repro.simulate.engine import Simulation\n"
        flat = config_from_table({"layers": {"core": 9, "simulate": 2}})
        report = lint_source(source, module="repro.core.x", config=flat)
        assert report.ok

    def test_pyproject_table_round_trip(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.opass-lint]\n"
            'remove-allow = ["_registry"]\n'
            "[tool.opass-lint.layers]\n"
            "core = 1\n"
            "simulate = 2\n"
        )
        config = load_config(pyproject)
        assert config.remove_allow == ("_registry",)
        assert config.layers == {"core": 1, "simulate": 2}


class TestReportAndCli:
    def test_json_schema(self):
        report = lint_file(FIXTURES / "ops004_bad.py")
        data = json.loads(report.to_json())
        assert data["version"] == JSON_SCHEMA_VERSION
        assert data["tool"] == "opass-lint"
        assert data["ok"] is False
        assert data["files_checked"] == 1
        assert data["counts"] == {"OPS004": 3}
        for violation in data["violations"]:
            assert set(violation) == {"file", "line", "col", "rule", "message"}
            assert violation["rule"] in RULES
        assert data["suppressed"] == []

    def test_json_records_suppressions_with_reasons(self):
        report = lint_file(FIXTURES / "ops001_ok.py")
        data = json.loads(report.to_json())
        assert data["ok"] is True
        assert len(data["suppressed"]) == 1
        entry = data["suppressed"][0]
        assert entry["suppressed"] is True
        assert entry["reason"]

    def test_cli_exit_zero_on_clean(self, capsys):
        assert main([str(FIXTURES / "ops003_ok.py")]) == EXIT_OK
        assert "clean" in capsys.readouterr().out

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_cli_exit_nonzero_with_rule_id_on_bad_fixture(self, rule, capsys):
        code = main([str(FIXTURES / f"{rule.lower()}_bad.py")])
        out = capsys.readouterr().out
        assert code == EXIT_VIOLATIONS
        assert rule in out

    def test_cli_missing_path_is_usage_error(self, capsys):
        assert main(["does/not/exist.py"]) == EXIT_ERROR
        assert "no such path" in capsys.readouterr().err

    def test_cli_bad_config_is_usage_error(self, tmp_path, capsys):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text("[tool.opass-lint]\nbogus-key = [1]\n")
        code = main(
            ["--config", str(pyproject), str(FIXTURES / "ops003_ok.py")]
        )
        assert code == EXIT_ERROR
        assert "config error" in capsys.readouterr().err

    def test_cli_json_format_and_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code = main(
            [
                "--format",
                "json",
                "--output",
                str(out_file),
                str(FIXTURES / "ops006_bad.py"),
            ]
        )
        assert code == EXIT_VIOLATIONS
        printed = json.loads(capsys.readouterr().out)
        written = json.loads(out_file.read_text())
        assert printed == written
        assert printed["counts"] == {"OPS006": 1}

    def test_cli_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_OK
        out = capsys.readouterr().out
        for rule in ("OPS000", *ALL_RULES):
            assert rule in out


class TestWholeTree:
    def test_src_is_clean_at_merge_time(self):
        """The repo's own acceptance gate: src/ lints clean."""
        report = lint_paths([REPO_ROOT / "src"])
        assert report.ok, report.render()
        assert report.files_checked > 70

    def test_every_suppression_in_src_has_a_reason(self):
        report = lint_paths([REPO_ROOT / "src"])
        assert report.suppressed, "expected documented suppressions in src/"
        for entry in report.suppressed:
            assert entry.reason and len(entry.reason) > 10, entry.render()
