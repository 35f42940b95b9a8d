"""Tests for the call-graph/summary engine behind `opass-verify`.

These exercise the resolution machinery directly: cyclic call graphs
must reach a fixed point, unresolvable method calls must fall back to
dynamic dispatch over same-named methods, and ``TYPE_CHECKING`` imports
must be erased from the runtime dependency graph.
"""

from __future__ import annotations

from repro.tools.callgraph import build_project, parse_module
from repro.tools.summaries import resolve_summaries, summarize_module


def project_of(*sources: tuple[str, str]):
    """Build (project, flat summaries) from ``(module, source)`` pairs."""
    project = build_project(
        [(f"{module.replace('.', '/')}.py", text, module) for module, text in sources]
    )
    local = {}
    for decl in project.modules.values():
        for name, summary in summarize_module(decl).items():
            local[f"{decl.module}.{name}"] = summary
    return project, resolve_summaries(project, local)


class TestResolution:
    def test_cross_module_call_resolves(self):
        project, ps = project_of(
            (
                "repro.core.a",
                "from repro.core.b import helper\n"
                "def top(x):\n"
                "    return helper(x)\n",
            ),
            ("repro.core.b", "def helper(x):\n    return x\n"),
        )
        [rc] = ps.resolved["repro.core.a.top"]
        assert [t.key for t in rc.targets] == ["repro.core.b.helper"]
        # return flow composes: top returns its own parameter via helper
        assert 0 in ps.return_params["repro.core.a.top"]

    def test_cycle_reaches_fixed_point(self):
        project, ps = project_of(
            (
                "repro.core.even",
                "from repro.core import odd\n"
                "def is_even(n, acc):\n"
                "    acc.append(n)\n"
                "    return odd.is_odd(n - 1, acc)\n",
            ),
            (
                "repro.core.odd",
                "from repro.core import even\n"
                "def is_odd(n, acc):\n"
                "    return even.is_even(n - 1, acc)\n",
            ),
        )
        assert ps.rounds > 0  # converged, did not spin forever
        # mutation of acc propagates around the cycle into both summaries
        assert 1 in ps.mutates["repro.core.even.is_even"]
        assert 1 in ps.mutates["repro.core.odd.is_odd"]

    def test_dynamic_dispatch_fallback_by_method_name(self):
        project, ps = project_of(
            (
                "repro.dfs.nodes",
                "class DataNode:\n"
                "    def serve(self, n):\n"
                "        self.load += n\n",
            ),
            (
                "repro.core.driver",
                "def drive(thing, n):\n"
                "    thing.serve(n)\n",  # receiver type unknown
            ),
        )
        [rc] = ps.resolved["repro.core.driver.drive"]
        assert [t.key for t in rc.targets] == ["repro.dfs.nodes.DataNode.serve"]
        # the receiver param inherits the mutation transitively
        assert 0 in ps.mutates["repro.core.driver.drive"]

    def test_annotated_receiver_beats_dynamic_dispatch(self):
        project, ps = project_of(
            (
                "repro.dfs.nodes",
                "class DataNode:\n"
                "    def serve(self, n):\n"
                "        self.load += n\n"
                "class Logger:\n"
                "    def serve(self, n):\n"
                "        return n\n",
            ),
            (
                "repro.core.driver",
                "from repro.dfs.nodes import Logger\n"
                "def drive(thing: Logger, n):\n"
                "    thing.serve(n)\n",
            ),
        )
        [rc] = ps.resolved["repro.core.driver.drive"]
        assert [t.key for t in rc.targets] == ["repro.dfs.nodes.Logger.serve"]
        assert 0 not in ps.mutates["repro.core.driver.drive"]


class TestParsing:
    def test_type_checking_imports_bind_aliases(self):
        decl = parse_module(
            "from typing import TYPE_CHECKING\n"
            "from repro.dfs.cluster import ClusterSpec\n"
            "if TYPE_CHECKING:\n"
            "    from repro.simulate.engine import Engine\n"
            "def f(e):\n"
            "    return e\n",
            path="src/repro/core/x.py",
        )
        assert decl.resolve_local("ClusterSpec") == "repro.dfs.cluster.ClusterSpec"
        # annotations resolve through the type-only import too
        assert decl.resolve_local("Engine") == "repro.simulate.engine.Engine"

    def test_module_directive_overrides_path(self):
        decl = parse_module(
            "# opass-lint: module=repro.core.fake\nX = 1\n", path="whatever.py"
        )
        assert decl.module == "repro.core.fake"

    def test_relative_import_resolution(self):
        decl = parse_module(
            "from ..dfs.cluster import ClusterSpec\n",
            path="src/repro/simulate/x.py",
        )
        assert decl.aliases == {"ClusterSpec": "repro.dfs.cluster.ClusterSpec"}


class TestSummaryFacts:
    def test_fresh_container_breaks_alias(self):
        # building a dict *from* a param then mutating it is not a
        # mutation of the param (the dict-comprehension false-aliasing bug)
        project, ps = project_of(
            (
                "repro.core.m",
                "def f(quotas):\n"
                "    d = {k: v for k, v in quotas.items()}\n"
                "    d['x'] = 1\n"
                "    return d\n",
            )
        )
        assert ps.mutates["repro.core.m.f"] == frozenset()

    def test_boolop_keeps_alias(self):
        # `a or b` returns an operand — mutating the result mutates a param
        project, ps = project_of(
            (
                "repro.core.m",
                "def f(a, b):\n"
                "    c = a or b\n"
                "    c.append(1)\n",
            )
        )
        assert ps.mutates["repro.core.m.f"] == frozenset({0, 1})
