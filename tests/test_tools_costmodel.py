"""Tests for the OPS300 cost-contract pass (`opass-verify`).

Fixture snippets live in ``tests/data/lint/`` as violating/clean pairs,
same convention as OPS101–OPS103 and OPS203.  The OPS302 bad fixture
puts the expensive work two call levels below the contracted function,
so only the interprocedural cost fixed point can price it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.tools.api import ALL_RULES, lint_file, lint_paths
from repro.tools.callgraph import Project, parse_module
from repro.tools.config import LintConfig, contract_module
from repro.tools.costmodel import COST_RULES, axis_level, resolve_costs
from repro.tools.model import marker_lines, parse_pragmas
from repro.tools.summaries import resolve_summaries, summarize_module
from repro.tools.verify import verify_paths, verify_source

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "data" / "lint"

COST_RULE_IDS = ("OPS301", "OPS302", "OPS303")


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
            ("ops301_bad", "OPS301"),
            ("ops301_flowtable_bad", "OPS301"),
            ("ops302_bad", "OPS302"),
            ("ops303_bad", "OPS303"),
        ],
    )
    def test_bad_fixture_trips_exactly_its_rule(self, name, rule):
        report = verify_fixture(name)
        assert rules_in(report) == {rule}, report.render()

    @pytest.mark.parametrize(
        "name", ("ops301_ok", "ops301_flowtable_ok", "ops302_ok", "ops303_ok")
    )
    def test_clean_fixture_is_clean(self, name):
        report = verify_fixture(name)
        assert report.ok, report.render()

    def test_rule_table_registered(self):
        assert set(COST_RULE_IDS) == set(COST_RULES)
        assert set(COST_RULES) <= set(ALL_RULES)

    def test_ops303_flags_each_quadratic_shape(self):
        report = verify_fixture("ops303_bad")
        messages = " / ".join(v.message for v in report.violations)
        assert len(report.violations) == 3, report.render()
        assert "membership test on list parameter" in messages
        assert "'+=' growth" in messages
        assert "nested iteration over the same axis" in messages


# -- interprocedural depth ---------------------------------------------------


class TestInterproceduralDepth:
    """The expensive work sits ≥2 call levels below the contracted fn."""

    def test_ops302_names_the_call_chain(self):
        report = verify_fixture("ops302_bad")
        [v] = report.violations
        # flagged at the call site inside the contracted function…
        assert v.line == 15
        # …but the witness names the chain down to the real allocation.
        assert "via ComponentAllocator._refresh" in v.message
        assert "ComponentAllocator._rebuild_index" in v.message
        assert "line 23" in v.message

    def test_ops301_fires_without_any_call_chain(self):
        report = verify_fixture("ops301_bad")
        [v] = report.violations
        assert v.line == 13
        assert "O(n) list() build" in v.message
        assert "O(deg) budget" in v.message


class TestStaleContracts:
    """A contract naming a function its module lacks fails loudly."""

    CONTRACTS = {
        "repro.simulate.components.ComponentAllocator.add": "O(deg)",
        "repro.simulate.components._still_whole": "O(n)",
        "repro.simulate.vectorized.solve_small": "O(deg)",
    }

    def verify_as(self, module: str, path: str):
        # without its directive the fixture stands for the whole module
        source = (FIXTURES / "ops301_ok.py").read_text(encoding="utf-8")
        source = source.split("\n", 1)[1]
        config = LintConfig(cost_contracts=dict(self.CONTRACTS))
        return verify_source(source, path=path, module=module, config=config)

    def test_contract_for_a_missing_function_is_ops301(self):
        report = self.verify_as("repro.simulate.components", "components.py")
        [v] = report.violations
        assert v.rule == "OPS301" and v.line == 1
        assert "stale cost contract" in v.message
        assert "'repro.simulate.components._still_whole'" in v.message

    def test_private_class_method_belongs_to_its_module(self):
        # a private class's capitalised name still marks the class, so
        # its method's contract is checked against the defining module
        assert (
            contract_module("repro.simulate.components._Lowered.enter")
            == "repro.simulate.components"
        )
        assert contract_module("repro.simulate.vectorized.solve_small") == (
            "repro.simulate.vectorized"
        )

    def test_package_does_not_own_its_submodules_contracts(self):
        # repro.simulate.vectorized.solve_small belongs to vectorized, not
        # to the repro.simulate package the source is verified as here
        report = self.verify_as("repro.simulate", "simulate/__init__.py")
        assert report.ok, report.render()

    def test_directive_snippet_is_not_checked_for_stale_contracts(self):
        # ops301_ok declares only ComponentAllocator.add of the many
        # default contracts on repro.simulate.components
        assert verify_fixture("ops301_ok").ok


class TestMissingModules:
    """A contract or pure-module entry whose module no analyzed file
    defines fails the project run."""

    CONFIG = dict(
        cost_contracts={
            "repro.simulate.gone.solve": "O(deg)",
            "repro.simulate.gone.Memo.lookup": "O(1)",
            "repro.simulate.kept.solve": "O(deg)",
            "repro.core.gone.match": "O(n)",
        },
        pure_modules=("repro.simulate.gone", "repro.simulate.kept", "repro.core.gone"),
    )

    @pytest.fixture
    def tree(self, tmp_path):
        pkg = tmp_path / "repro" / "simulate"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "kept.py").write_text("def solve(flows):\n    return len(flows)\n")
        return tmp_path

    def verify(self, paths):
        return verify_paths(paths, config=LintConfig(**self.CONFIG))

    def test_missing_module_reported_on_parent_package(self, tree):
        report = self.verify([tree / "repro" / "simulate"])
        found = sorted(
            (v.rule, v.line, Path(v.file).name, v.message) for v in report.violations
        )
        assert [f[:3] for f in found] == [
            ("OPS103", 1, "__init__.py"),
            ("OPS301", 1, "__init__.py"),
            ("OPS301", 1, "__init__.py"),
        ], report.render()
        assert "'repro.simulate.gone'" in found[0][3]
        assert "'repro.simulate.gone.Memo.lookup'" in found[1][3]
        assert "'repro.simulate.gone.solve'" in found[2][3]
        # repro.core is not analyzed, so its entries are not judged
        assert "repro.core" not in report.render()

    def test_single_file_flags_no_other_package(self, tree):
        report = self.verify([tree / "repro" / "simulate" / "kept.py"])
        assert report.ok, report.render()

    def test_reported_from_the_tree_root(self, tree):
        report = self.verify([tree])
        assert len(report.violations) == 3, report.render()


# -- the cost lattice itself -------------------------------------------------


UNIT_SRC = '''\
# opass-lint: module=repro.unit.cost
def leaf(items):
    return [x for x in items]


def mid(items):
    return leaf(items)


def top(batches):
    out = []
    for b in batches:
        out.extend(mid(b))
    return out
'''


class TestCostLattice:
    def test_axis_classification(self):
        config = LintConfig()
        assert axis_level("<const>", config) == 0
        assert axis_level("<element>", config) == 1
        assert axis_level("<while>", config) == 2
        # registered small axes charge O(deg); everything else O(n).
        assert axis_level("flows", config) == 1
        assert axis_level("path", config) == 1
        assert axis_level("_tracked", config) == 2

    def test_costs_propagate_through_two_call_levels(self):
        decl = parse_module(UNIT_SRC, path="unit.py")
        project = Project()
        project.add_module(decl)
        local = {
            f"{decl.module}.{name}": summary
            for name, summary in summarize_module(decl).items()
        }
        costs = resolve_costs(resolve_summaries(project, local), LintConfig())
        leaf = costs["repro.unit.cost.leaf"]
        mid = costs["repro.unit.cost.mid"]
        top = costs["repro.unit.cost.top"]
        assert leaf.level == 2  # O(n) list build
        assert mid.level == 2  # inherits leaf's cost at loop depth 0
        assert top.level >= 4  # O(n) callee under an O(n) loop
        assert any("leaf" in key for key in mid.chain)

    def test_alloc_ok_waives_exactly_its_line(self):
        src = FIXTURES.joinpath("ops301_ok.py").read_text(encoding="utf-8")
        waived = marker_lines(src, "alloc-ok")
        assert waived == {13}
        # strip the waiver and the same source trips OPS301.
        stripped = src.replace(
            "  # opass: alloc-ok -- epoch debug snapshot, "
            "guarded off the hot path",
            "",
        )
        report = verify_source(stripped, path="ops301_stripped.py")
        assert rules_in(report) == {"OPS301"}, report.render()


# -- unified pragma grammar (OPS000) -----------------------------------------


class TestPragmaGrammar:
    def test_bad_fixture_trips_exactly_ops000(self):
        report = lint_file(FIXTURES / "ops000_pragma_bad.py")
        assert rules_in(report) == {"OPS000"}, report.render()
        assert len(report.violations) == 3
        messages = " / ".join(v.message for v in report.violations)
        assert "invalid reassoc-ok pragma: missing reason" in messages
        assert "invalid alloc-ok pragma: missing reason" in messages
        assert "unknown pragma kind 'vectorize-ok'" in messages

    def test_clean_fixture_is_clean_under_lint_and_verify(self):
        path = FIXTURES / "ops000_pragma_ok.py"
        assert lint_file(path).ok
        report = verify_source(
            path.read_text(encoding="utf-8"), path=str(path)
        )
        assert report.ok, report.render()

    def test_verify_agrees_on_grammar_errors(self):
        path = FIXTURES / "ops000_pragma_bad.py"
        report = verify_source(
            path.read_text(encoding="utf-8"), path=str(path)
        )
        assert rules_in(report) == {"OPS000"}, report.render()

    def test_prose_mentioning_pragmas_is_not_a_pragma(self):
        src = (
            '"""Write `# opass: alloc-ok` to waive.\n\n'
            "Also `# opass: frob` would be unknown.\n"
            '"""\n'
            "GRAMMAR = \"# opass: reassoc-ok\"\n"
        )
        index = parse_pragmas(src, "doc.py", None)
        assert not index.errors
        assert not index.markers

    def test_malformed_markers_never_waive(self):
        src = "x = list(y)  # opass: alloc-ok\n"
        assert marker_lines(src, "alloc-ok") == set()
        index = parse_pragmas(src, "snippet.py", None)
        assert [v.rule for v in index.errors] == ["OPS000"]


# -- relaxed lint profile over extra-paths -----------------------------------


class TestRelaxedProfile:
    def make_tree(self, tmp_path: Path, body: str) -> Path:
        bench = tmp_path / "benchmarks"
        bench.mkdir()
        (bench / "bench_x.py").write_text(body, encoding="utf-8")
        return bench

    def test_sweep_tolerates_seeded_rng(self, tmp_path):
        bench = self.make_tree(
            tmp_path,
            "import random\n\nRNG = random.Random(1234)\n",
        )
        config = LintConfig(extra_paths=("benchmarks",))
        assert lint_paths([bench], config=config).ok

    def test_sweep_still_flags_unseeded_rng(self, tmp_path):
        bench = self.make_tree(
            tmp_path,
            "import random\n\nRNG = random.Random()\n",
        )
        config = LintConfig(extra_paths=("benchmarks",))
        report = lint_paths([bench], config=config)
        assert rules_in(report) == {"OPS001"}, report.render()

    def test_explicit_file_gets_the_full_profile(self, tmp_path):
        bench = self.make_tree(
            tmp_path,
            "import random\n\nRNG = random.Random(1234)\n",
        )
        config = LintConfig(extra_paths=("benchmarks",))
        report = lint_paths([bench / "bench_x.py"], config=config)
        assert "OPS001" in rules_in(report), report.render()
