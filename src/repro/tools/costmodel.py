"""Cost-contract rules OPS301–OPS303 (`opass-verify`).

PRs 4–6 bought the hot paths their asymptotics — O(|path|) allocator
updates, amortized-O(deg) CSR re-matching, lazy completion heaps — but
nothing *enforced* them: one innocent ``list(...)`` inside
``ComponentAllocator.solve`` silently reverts a 30× win, and only a
noisy bench regression would notice.  This pass rides the same
fixed-point summaries as OPS101–OPS103 and checks declared **cost
contracts** (:data:`repro.tools.config.DEFAULT_COST_CONTRACTS`) on the
hot-path functions:

* **OPS301 — allocation over budget.**  A scaling allocation (container
  build, comprehension, ``np.*`` constructor, string concat in a loop)
  inside a contracted function whose cost — enclosing loop axes plus the
  build's own size — exceeds the declared budget, and which carries no
  ``# opass: alloc-ok -- <why>`` waiver.  Waived sites are excluded from
  the fixed point entirely, so an amortization argument made once stays
  compositional.
* **OPS302 — call over the per-iteration budget.**  A call whose
  summarized cost, added to the loop depth it sits under, exceeds the
  caller's budget (calling O(E) ``rebuild`` from an O(deg) amortized
  path).  The violation names the chain OPS103-style::

      in solve (via _repartition -> _bfs): O(n) list() build at line 88

* **OPS303 — known quadratic shapes.**  Inside contracted loops:
  ``in``/``.index()``/``.remove()`` on list-typed parameters, repeated
  ``+=`` container/string growth, and nested iteration over the same
  axis.

A contract whose key names this module but no function in it is itself
an OPS301 finding at line 1: renaming a contracted function must not
silently drop its budget.  A snippet placed in a module by a
``# opass-lint: module=`` directive stands for part of that module, so
it is not checked for stale contracts.

The cost lattice is deliberately an *under*-approximation: cost comes
only from allocation and call sites, loops over axes named in
``small_axes`` charge O(deg) (so ``for f in component.flows`` is charged
to the component, not the world), and a pure loop with neither
allocations nor calls contributes nothing.  Fewer false positives; the
deterministic work-counter growth test
(``tests/test_work_counter_growth.py``) backstops what the static side
under-counts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .callgraph import CallRef, FunctionDecl, ModuleDecl, ResolvedCall
from .config import COST_BUDGET_LEVELS, LintConfig
from .interproc import _package_of
from .model import Violation
from .summaries import AllocSite, ProjectSummaries, axis_of

#: rule id → one-line description (merged into ``--list-rules``).
COST_RULES: dict[str, str] = {
    "OPS301": "scaling allocation exceeds the declared cost budget",
    "OPS302": "summarized callee cost exceeds the caller's per-iteration budget",
    "OPS303": "known quadratic shape inside a cost-contracted function",
}

#: Lattice level → rendered bound.  Nested composition sums levels, so
#: an O(n) build under an O(n) loop lands at 4; everything above the
#: lattice top is reported as ``>O(n^2)``.
LEVEL_NAMES: dict[int, str] = {
    0: "O(1)",
    1: "O(deg)",
    2: "O(n)",
    3: "O(n log n)",
    4: "O(n^2)",
    5: ">O(n^2)",
}
MAX_LEVEL = 5

#: Special axis tokens recorded by :func:`repro.tools.summaries.axis_of`.
_SPECIAL_AXIS_LEVELS: dict[str, int] = {
    "<const>": 0,  # syntactically fixed size
    "<element>": 1,  # one subscripted element of a container
    "<str>": 1,  # one string operand
    "<while>": 2,  # data-dependent trip count: assume linear
    "<unknown>": 2,  # cannot bound it: assume linear
}


def _confident_targets(ref: CallRef, rc: ResolvedCall) -> list[FunctionDecl]:
    """Project targets excluding the dynamic-dispatch (bare-name) fallback.

    Following the fallback would price ``conn.recv()`` at the worst
    ``recv`` anywhere in the project.
    """
    if ref.kind == "method" and ref.recv_type is None:
        return []
    return rc.targets


def axis_level(axis: str, config: LintConfig) -> int:
    """Lattice level of one iteration axis token under this config."""
    special = _SPECIAL_AXIS_LEVELS.get(axis)
    if special is not None:
        return special
    return 1 if axis in config.small_axes else 2


def _axes_level(axes: tuple[str, ...], config: LintConfig) -> int:
    return min(MAX_LEVEL, sum(axis_level(a, config) for a in axes))


def site_level(site: AllocSite, config: LintConfig) -> int:
    """Total lattice level of one allocation site (loops + own size)."""
    return min(
        MAX_LEVEL,
        _axes_level(site.axes, config) + _axes_level(site.own, config),
    )


def _short(key: str) -> str:
    """``repro.simulate.components.ComponentAllocator.solve`` → readable tail."""
    parts = key.split(".")
    if len(parts) >= 2 and parts[-2][:1].isupper():
        return ".".join(parts[-2:])
    return parts[-1]


def _describe_site(site: AllocSite, config: LintConfig) -> str:
    own = _axes_level(site.own, config)
    desc = f"{LEVEL_NAMES[own]} {site.kind} at line {site.line}"
    if site.axes:
        desc += " under a loop over " + " -> ".join(site.axes)
    return desc


@dataclass(frozen=True)
class Cost:
    """Summarized worst-case cost of one function, with its witness."""

    level: int
    #: human description of the dominating allocation site.
    witness: str = ""
    #: function keys from the function itself down to the witness holder.
    chain: tuple[str, ...] = ()


def resolve_costs(
    summaries: ProjectSummaries, config: LintConfig
) -> dict[str, Cost]:
    """Interprocedural cost fixed point over the whole project.

    ``cost(f)`` is the max over f's unwaived allocation sites (enclosing
    loop axes plus the build's own size) and call sites (loop depth plus
    ``cost(callee)``, following only confidently resolved edges).  Calls
    to cost-0 functions contribute nothing regardless of depth — a pure
    O(1) helper under a loop is the loop's business, and pure loops are
    deliberately not floored (under-approximation, see module docstring).
    Levels only grow and are clamped at :data:`MAX_LEVEL`, so iteration
    terminates even through recursion cycles.
    """
    costs: dict[str, Cost] = {key: Cost(0) for key in summaries.locals}
    changed = True
    while changed:
        changed = False
        for key, local in summaries.locals.items():
            best = costs[key]
            for site in local.allocs:
                if site.waived:
                    continue
                level = site_level(site, config)
                if level > best.level:
                    best = Cost(level, _describe_site(site, config), (key,))
            resolved = summaries.resolved.get(key, [])
            for ref, rc, axes in zip(local.calls, resolved, local.call_axes):
                depth = _axes_level(axes, config)
                for target in _confident_targets(ref, rc):
                    sub = costs.get(target.key)
                    if sub is None or sub.level == 0 or target.key == key:
                        continue
                    level = min(MAX_LEVEL, depth + sub.level)
                    if level > best.level:
                        best = Cost(level, sub.witness, (key,) + sub.chain)
            if best.level > costs[key].level:
                costs[key] = best
                changed = True
    return costs


def _list_params(fn: FunctionDecl) -> set[str]:
    """Parameter names annotated as plain lists (OPS303 scan targets)."""
    out: set[str] = set()
    for name, ann in zip(fn.params, fn.param_annotation_nodes):
        root = ann
        if isinstance(root, ast.Subscript):
            root = root.value
        if isinstance(root, ast.Name) and root.id in {"list", "List"}:
            out.add(name)
    return out


#: ``+=`` values that grow a container or string (quadratic in a loop).
def _is_growth_value(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.ListComp, ast.GeneratorExp)):
        return True
    if isinstance(value, ast.JoinedStr):
        return True
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return True
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id in {"list", "tuple", "sorted"}
    if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add):
        return _is_growth_value(value.left) or _is_growth_value(value.right)
    return False


def _check_quadratic_shapes(
    fn: FunctionDecl,
    budget_str: str,
    config: LintConfig,
    violation,
) -> None:
    """OPS303 over one contracted function body."""
    list_params = _list_params(fn)
    stack: list[str] = []

    def scan(node: ast.AST) -> None:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ) and node is not fn.node:
            return
        in_loop = any(axis_level(a, config) > 0 for a in stack)
        if in_loop:
            if isinstance(node, ast.Compare):
                for op, comp in zip(node.ops, node.comparators):
                    if (
                        isinstance(op, (ast.In, ast.NotIn))
                        and isinstance(comp, ast.Name)
                        and comp.id in list_params
                    ):
                        violation(
                            "OPS303",
                            node,
                            f"membership test on list parameter '{comp.id}' "
                            f"inside a loop scans the list each iteration — "
                            f"quadratic under '{fn.local_qualname}'s "
                            f"{budget_str} contract; use a set or dict",
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in {"index", "remove"}
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in list_params
            ):
                violation(
                    "OPS303",
                    node,
                    f"'.{node.func.attr}()' on list parameter "
                    f"'{node.func.value.id}' inside a loop scans the list "
                    f"each iteration — quadratic under "
                    f"'{fn.local_qualname}'s {budget_str} contract",
                )
            elif (
                isinstance(node, ast.AugAssign)
                and isinstance(node.op, ast.Add)
                and isinstance(node.target, ast.Name)
                and _is_growth_value(node.value)
            ):
                violation(
                    "OPS303",
                    node,
                    f"repeated '+=' growth of '{node.target.id}' inside a "
                    f"loop reallocates the whole container each iteration — "
                    f"quadratic under '{fn.local_qualname}'s {budget_str} "
                    f"contract; append (or ''.join) instead",
                )

        if isinstance(node, (ast.For, ast.AsyncFor)):
            scan(node.iter)
            axis = axis_of(node.iter)
            if not axis.startswith("<") and axis in stack:
                violation(
                    "OPS303",
                    node,
                    f"nested iteration over the same axis '{axis}' is "
                    f"quadratic in that axis — over "
                    f"'{fn.local_qualname}'s {budget_str} contract",
                )
            stack.append(axis)
            for child in (*node.body, *node.orelse):
                scan(child)
            stack.pop()
            return
        if isinstance(node, ast.While):
            stack.append("<while>")
            scan(node.test)
            for child in (*node.body, *node.orelse):
                scan(child)
            stack.pop()
            return
        for child in ast.iter_child_nodes(node):
            scan(child)

    scan(fn.node)


def check_module_cost(
    decl: ModuleDecl,
    summaries: ProjectSummaries,
    costs: dict[str, Cost],
    config: LintConfig | None = None,
) -> list[Violation]:
    """Run OPS301–OPS303 over one module's contracted functions.

    ``costs`` is the project-wide fixed point from :func:`resolve_costs`
    — a violation in this module may be witnessed by an allocation two
    call levels away in another module, which is why this rides the
    verify engine, not plain lint.
    """
    config = config if config is not None else LintConfig()
    out: list[Violation] = []
    package = _package_of(decl.module)

    def violation(rule: str, node: ast.AST, message: str) -> None:
        out.append(
            Violation(
                file=decl.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=rule,
                message=message,
            )
        )

    def at(line: int, col: int) -> ast.AST:
        site = ast.Name(id="x")
        site.lineno, site.col_offset = line, max(col - 1, 0)
        return site

    if not decl.snippet and config.in_scope("OPS301", package):
        for key, budget_str in sorted(config.own_contracts(decl.module).items()):
            if key[len(decl.module) + 1 :] not in decl.functions:
                violation(
                    "OPS301",
                    at(1, 1),
                    f"stale cost contract: {key!r} ({budget_str}) names no "
                    f"function in {decl.module}; update or drop the contract",
                )

    for fn in decl.functions.values():
        budget_str = config.cost_contracts.get(fn.key)
        if budget_str is None:
            continue
        budget = COST_BUDGET_LEVELS[budget_str]
        local = summaries.locals.get(fn.key)
        if local is None:
            continue

        if config.in_scope("OPS301", package):
            for site in local.allocs:
                if site.waived:
                    continue
                level = site_level(site, config)
                if level > budget:
                    violation(
                        "OPS301",
                        at(site.line, site.col),
                        f"in {fn.local_qualname}: "
                        f"{_describe_site(site, config)} — "
                        f"{LEVEL_NAMES[level]} exceeds the declared "
                        f"{budget_str} budget; annotate "
                        "`# opass: alloc-ok -- <why>` if the size is "
                        "bounded by contract",
                    )

        if config.in_scope("OPS302", package):
            resolved = summaries.resolved.get(fn.key, [])
            for ref, rc, axes in zip(local.calls, resolved, local.call_axes):
                depth = _axes_level(axes, config)
                worst: tuple[int, str, Cost] | None = None
                for target in _confident_targets(ref, rc):
                    sub = costs.get(target.key)
                    if sub is None or sub.level == 0:
                        continue
                    total = min(MAX_LEVEL, depth + sub.level)
                    if total > budget and (worst is None or total > worst[0]):
                        worst = (total, target.key, sub)
                if worst is None:
                    continue
                total, target_key, sub = worst
                via = ""
                if len(sub.chain) > 1:
                    via = f" (via {' -> '.join(_short(k) for k in sub.chain)})"
                under = (
                    f" under a loop over {' -> '.join(axes)}" if axes else ""
                )
                violation(
                    "OPS302",
                    at(ref.line, ref.col),
                    f"in {fn.local_qualname}{via}: {sub.witness}{under} — "
                    f"summarized {LEVEL_NAMES[min(MAX_LEVEL, depth + sub.level)]} "
                    f"call to {_short(target_key)} exceeds the declared "
                    f"{budget_str} budget",
                )

        if config.in_scope("OPS303", package):
            _check_quadratic_shapes(fn, budget_str, config, violation)

    return out
