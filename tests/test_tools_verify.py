"""Tests for `opass-verify` (OPS101–OPS103): rules, SARIF, CLI.

Fixture snippets live in ``tests/data/lint/`` as violating/clean pairs,
same convention as the intraprocedural rules.  Each bad fixture contains
at least one violation that *only* interprocedural analysis can catch —
the defect sits two or more call levels away from the code that flags.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.tools.api import ALL_RULES
from repro.tools.interproc import INTERPROC_RULES
from repro.tools.sarif import to_sarif
from repro.tools.verify import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_VIOLATIONS,
    main,
    verify_paths,
    verify_source,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "data" / "lint"

VERIFY_RULES = ("OPS101", "OPS102", "OPS103")


def verify_fixture(name: str):
    path = FIXTURES / f"{name}.py"
    return verify_source(path.read_text(encoding="utf-8"), path=str(path))


def rules_in(report):
    return {v.rule for v in report.violations}


class TestFixturePairs:
    @pytest.mark.parametrize("rule", VERIFY_RULES)
    def test_bad_fixture_trips_exactly_its_rule(self, rule):
        report = verify_fixture(f"{rule.lower()}_bad")
        assert rules_in(report) == {rule}, report.render()

    @pytest.mark.parametrize("rule", VERIFY_RULES)
    def test_clean_fixture_is_clean(self, rule):
        report = verify_fixture(f"{rule.lower()}_ok")
        assert report.ok, report.render()

    def test_rule_table_registered(self):
        assert set(VERIFY_RULES) <= set(INTERPROC_RULES)
        assert set(INTERPROC_RULES) <= set(ALL_RULES)


class TestInterproceduralDepth:
    """The defect is ≥2 call levels from the flagged site."""

    def test_ops101_entropy_through_two_call_levels(self):
        # pick_node calls _tiebreak calls _raw_entropy calls id(); the
        # decision site itself contains no entropy call at all.
        report = verify_fixture("ops101_bad")
        lines = {v.line for v in report.violations if v.rule == "OPS101"}
        assert 12 in lines, report.render()  # salt = _tiebreak()
        msgs = [v.message for v in report.violations if v.line == 12]
        assert any("_tiebreak" in m for m in msgs), report.render()

    def test_ops101_unseeded_draw_and_tainted_global(self):
        report = verify_fixture("ops101_bad")
        msgs = [v.message for v in report.violations]
        assert any("entropy-tainted generator" in m for m in msgs)
        assert any("global assignment stores entropy" in m for m in msgs)

    def test_ops101_seeded_injected_generator_is_clean(self):
        # ops101_ok threads a Generator through the same three call
        # levels; rng taint (seeded machinery) must not flag.
        assert verify_fixture("ops101_ok").ok

    def test_ops102_inferred_units_through_forwarding_helper(self):
        # indirect -> _forward -> read_time: _forward has no annotations
        # and no conventional names; its param units exist only via
        # fixed-point inference from what it forwards into read_time.
        report = verify_fixture("ops102_bad")
        indirect = [v for v in report.violations if v.line == 28]
        assert len(indirect) == 2, report.render()
        assert all("_forward" in v.message for v in indirect)

    def test_ops103_mutation_two_levels_down_names_the_culprit(self):
        report = verify_fixture("ops103_bad")
        [mutation] = [v for v in report.violations if "cluster" in v.message]
        assert mutation.line == 10  # flagged at assign's def, not at _bump
        assert "via repro.core.opass._account" in mutation.message

    def test_ops103_copy_then_mutate_is_clean(self):
        # _snapshot returns dict(...); the call boundary insulates the
        # copy from the protected argument it was derived from.
        assert verify_fixture("ops103_ok").ok


class TestComponentAllocatorPurity:
    """The component allocator's solve path is registered pure: it may
    read cluster state but never write Cluster/NameNode/DataNode."""

    def test_module_is_registered_pure(self):
        from repro.tools.config import DEFAULT_PURE_MODULES

        assert "repro.simulate.components" in DEFAULT_PURE_MODULES

    def test_solve_mutating_dfs_state_is_flagged(self):
        report = verify_fixture("ops103_components_bad")
        assert rules_in(report) == {"OPS103"}, report.render()
        [mutation] = [v for v in report.violations if "cluster" in v.message]
        assert mutation.line == 11  # flagged at solve's def, not _charge
        assert "_commit" in mutation.message

    def test_private_bookkeeping_solve_is_clean(self):
        assert verify_fixture("ops103_components_ok").ok

    def test_real_components_module_is_clean_with_zero_suppressions(self):
        path = REPO_ROOT / "src" / "repro" / "simulate" / "components.py"
        report = verify_source(path.read_text(encoding="utf-8"), path=str(path))
        assert report.ok, report.render()
        assert report.suppressed == [], report.render()


class TestMatchingKernelPurity:
    """The CSR matching kernels are registered pure: they may read the
    block layout through snapshots but never write DFS state."""

    def test_new_kernel_modules_are_registered_pure(self):
        from repro.tools.config import DEFAULT_PURE_MODULES

        assert "repro.core.csr" in DEFAULT_PURE_MODULES
        assert "repro.core.flownetwork" in DEFAULT_PURE_MODULES

    def test_solver_reserving_dfs_capacity_is_flagged(self):
        report = verify_fixture("ops103_flownetwork_bad")
        assert rules_in(report) == {"OPS103"}, report.render()
        [mutation] = [v for v in report.violations if "fs" in v.message]
        assert mutation.line == 11  # flagged at max_flow's def, not _reserve
        assert "_augment" in mutation.message

    def test_private_buffer_solver_is_clean(self):
        assert verify_fixture("ops103_flownetwork_ok").ok

    @pytest.mark.parametrize(
        "relpath",
        [
            ("core", "csr.py"),
            ("core", "flownetwork.py"),
            ("core", "mincostflow.py"),
            ("core", "bipartite.py"),
        ],
    )
    def test_real_kernel_modules_clean_with_zero_suppressions(self, relpath):
        path = REPO_ROOT.joinpath("src", "repro", *relpath)
        report = verify_source(path.read_text(encoding="utf-8"), path=str(path))
        assert report.ok, report.render()
        assert report.suppressed == [], report.render()


class TestSuppressions:
    def test_pragma_suppresses_verify_rule(self):
        source = (
            "# opass-lint: module=repro.core.x\n"
            "def pick(nodes):\n"
            "    k = id(nodes)  # opass: ignore[OPS101] -- documented tiebreak\n"
            "    return nodes[k % len(nodes)]\n"
        )
        report = verify_source(source, path="x.py")
        assert report.ok, report.render()
        assert {v.rule for v in report.suppressed} == {"OPS101"}
        assert report.suppressed[0].reason == "documented tiebreak"

    def test_real_tree_is_clean(self):
        report = verify_paths([str(REPO_ROOT / "src")])
        assert report.ok, report.render()


class TestSarif:
    def test_schema_shape(self):
        report = verify_fixture("ops103_bad")
        log = to_sarif(report)
        assert log["version"] == "2.1.0"
        assert log["$schema"].endswith("sarif-2.1.0.json")
        [run] = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "opass-verify"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert rule_ids == sorted(ALL_RULES)
        assert all("shortDescription" in r for r in driver["rules"])
        assert len(run["results"]) == len(report.violations)
        for result in run["results"]:
            assert result["ruleId"] in ALL_RULES
            assert result["ruleIndex"] == rule_ids.index(result["ruleId"])
            assert result["message"]["text"]
            [loc] = result["locations"]
            region = loc["physicalLocation"]["region"]
            assert region["startLine"] >= 1 and region["startColumn"] >= 1

    def test_suppressed_results_carry_justification(self):
        source = (
            "# opass-lint: module=repro.core.x\n"
            "def pick(nodes):\n"
            "    return nodes[id(nodes) % len(nodes)]"
            "  # opass: ignore[OPS101] -- fixture\n"
        )
        log = to_sarif(verify_source(source, path="x.py"))
        [result] = log["runs"][0]["results"]
        assert result["suppressions"] == [
            {"kind": "inSource", "justification": "fixture"}
        ]

    def test_sarif_is_json_serializable(self):
        log = to_sarif(verify_fixture("ops101_bad"))
        assert json.loads(json.dumps(log)) == log


class TestCli:
    def test_clean_tree_exits_zero(self, capsys):
        code = main([str(REPO_ROOT / "src")])
        assert code == EXIT_OK
        assert "clean" in capsys.readouterr().out

    def test_violations_exit_one(self, capsys):
        code = main([str(FIXTURES / "ops101_bad.py")])
        assert code == EXIT_VIOLATIONS
        assert "OPS101" in capsys.readouterr().out

    def test_missing_path_exits_two(self, capsys):
        assert main(["definitely/not/here"]) == EXIT_ERROR

    def test_list_rules_includes_both_families(self, capsys):
        assert main(["--list-rules"]) == EXIT_OK
        out = capsys.readouterr().out
        for rule in ("OPS001", "OPS101", "OPS102", "OPS103"):
            assert rule in out

    def test_sarif_format_and_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.sarif"
        code = main(
            [
                str(FIXTURES / "ops103_bad.py"),
                "--format",
                "sarif",
                "--output",
                str(out_file),
            ]
        )
        assert code == EXIT_VIOLATIONS
        log = json.loads(out_file.read_text(encoding="utf-8"))
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"]

    def test_rerun_sees_an_edit_reached_by_dynamic_dispatch(
        self, tmp_path, monkeypatch, capsys
    ):
        # a.py calls tiebreak() on an untyped receiver, so the call
        # resolves through the dynamic-dispatch fallback to b.py's method;
        # a.py imports nothing from b.py.  Editing b.py alone must change
        # a.py's findings on the next run.
        monkeypatch.chdir(tmp_path)
        core = tmp_path / "tree" / "repro" / "core"
        apps = tmp_path / "tree" / "repro" / "apps"
        core.mkdir(parents=True)
        apps.mkdir(parents=True)
        (core / "a.py").write_text(
            "def pick(helper, nodes):\n"
            "    return nodes[helper.tiebreak() % len(nodes)]\n"
        )
        helper = apps / "b.py"
        helper.write_text("class Helper:\n    def tiebreak(self):\n        return 7\n")
        assert main(["tree"]) == EXIT_OK
        assert "2 file(s) clean" in capsys.readouterr().out

        helper.write_text(
            "class Helper:\n    def tiebreak(self):\n        return id(object())\n"
        )
        assert main(["tree"]) == EXIT_VIOLATIONS
        out = capsys.readouterr().out
        assert "a.py:2:18: OPS101" in out
        assert "return value of repro.apps.b.Helper.tiebreak" in out


class TestLintIntegration:
    def test_lint_does_not_flag_verify_pragmas(self):
        # an OPS101 pragma in a file checked by plain opass-lint must
        # not be reported as an unknown rule id (OPS000)
        from repro.tools.api import lint_source

        report = lint_source(
            "x = 1  # opass: ignore[OPS101] -- not relevant to plain lint\n",
            module="repro.analysis.x",
        )
        assert report.ok, report.render()
