"""Interprocedural rules OPS101–OPS103 (`opass-verify`).

These rules consume the fixed-point summaries of
:mod:`repro.tools.summaries` — they never walk a callee's body at a
call site, so a fact N call levels deep costs the same as a local one:

* **OPS101 — determinism taint.**  Entropy sources (wall clock, ``id``,
  ``os.urandom``, *unseeded* ``np.random.default_rng()``, …) must not
  reach scheduler/placement decision code (the ``core``/``dfs``
  packages), and neither entropy nor ``np.random.Generator`` machinery
  may be written to a module-level global anywhere.  Direct wall-clock
  and ``np.random`` global-state calls are deliberately *not* re-flagged
  here — OPS001/OPS002 own those sites; OPS101 adds the flows they
  cannot see (a tainted value returned through N project-internal
  calls, a draw from an unseeded generator held in a local).
* **OPS102 — unit/dimension mixing.**  Using the
  :mod:`repro.tools.units` lattice (bytes / seconds / bytes_per_sec /
  count), flags ``+``/``-``/comparisons between different known units,
  argument-to-parameter bindings that cross units (including dataclass
  constructor fields), and returns that contradict the declared return
  unit.  Unknown units never flag.
* **OPS103 — scheduler purity.**  Functions in the matching-kernel
  modules must not transitively mutate a parameter annotated with a
  protected DFS state type (``Cluster``/``NameNode``/``DataNode``/
  ``DistributedFileSystem``) and must not write module globals.

Every violation is attributed to a concrete line in the module under
check, so PR 2's per-line suppression pragmas work unchanged.
"""

from __future__ import annotations

import ast

from .astutils import ENTROPY_CALLS
from .callgraph import CallRef, FunctionDecl, ModuleDecl, ResolvedCall, build_call_ref
from .config import LintConfig
from .model import Violation
from .summaries import (
    TAINT_ENTROPY,
    TAINT_RNG,
    ProjectSummaries,
    bind_param,
    class_type_root,
    declared_return_unit,
    external_taint,
    infer_local_types,
    is_rng_annotation,
)
from .units import combine_add, combine_div, combine_mul, unit_of_annotation, unit_of_name

#: rule id → one-line description (merged into ``--list-rules``).
INTERPROC_RULES: dict[str, str] = {
    "OPS101": "nondeterminism reaches decision code or a module global (taint)",
    "OPS102": "cross-unit arithmetic/binding (bytes vs seconds vs bytes_per_sec)",
    "OPS103": "matching kernel transitively mutates DFS state (purity contract)",
}

_UNIT_WRAPPERS = frozenset({"min", "max", "abs", "sum", "float", "int", "round"})

_ORDERED_CMP = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _package_of(module: str) -> str | None:
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return None


def _module_level_stmts(tree: ast.Module) -> list[ast.stmt]:
    """Statements executed at import time (not inside defs/classes)."""
    out: list[ast.stmt] = []
    stack: list[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        out.append(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                stack.append(child)
    return out


class _Scope:
    """Shared call resolution + taint/unit environments for one body."""

    def __init__(
        self,
        decl: ModuleDecl,
        summaries: ProjectSummaries,
        *,
        body: list[ast.stmt],
        fn: FunctionDecl | None = None,
    ) -> None:
        self.decl = decl
        self.ps = summaries
        self.fn = fn
        self.body = body
        self.params = (
            {name: i for i, name in enumerate(fn.params)} if fn is not None else {}
        )
        self.local_types = (
            infer_local_types(decl, fn) if fn is not None else {}
        )
        self.calls: dict[int, tuple[CallRef, ResolvedCall]] = {}
        for node in self._walk():
            if isinstance(node, ast.Call):
                ref = build_call_ref(
                    decl,
                    node,
                    params=self.params,
                    local_types=self.local_types,
                    current_class=fn.class_name if fn is not None else None,
                )
                if ref is not None:
                    self.calls[id(node)] = (ref, summaries.project.resolve_ref(ref))
        self.taint_env: dict[str, set[str]] = {}
        if fn is not None:
            for name, ann in zip(fn.params, fn.param_annotation_nodes):
                if is_rng_annotation(decl, ann):
                    self.taint_env[name] = {TAINT_RNG}
        self._build_taint_env()
        self._unit_memo: dict[int, str | None] = {}
        self.unit_env: dict[str, str | None] = {}
        if fn is not None:
            fixed = summaries.param_units.get(fn.key, ())
            for i, name in enumerate(fn.params):
                if i < len(fixed) and fixed[i] is not None:
                    self.unit_env[name] = fixed[i]
        self._build_unit_env()

    def _walk(self):
        for stmt in self.body:
            yield from ast.walk(stmt)

    # -- taint ---------------------------------------------------------------

    def taint_of(self, expr: ast.expr | None) -> frozenset[str]:
        if expr is None:
            return frozenset()
        if isinstance(expr, ast.Name):
            if expr.id in self.taint_env:
                return frozenset(self.taint_env[expr.id])
            return frozenset()
        if isinstance(expr, ast.Call):
            return self.call_taint(expr)
        if isinstance(expr, (ast.Attribute, ast.Subscript, ast.Starred, ast.Await)):
            return self.taint_of(expr.value)
        out: set[str] = set()
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                out |= self.taint_of(child)
        return frozenset(out)

    def call_taint(self, call: ast.Call) -> frozenset[str]:
        entry = self.calls.get(id(call))
        if entry is None:
            return frozenset()
        ref, rc = entry
        out: set[str] = set()
        if rc.external is not None:
            out |= external_taint(rc.external, ref.nargs)
        for target in rc.targets:
            out |= self.ps.return_taint.get(target.key, frozenset())
            for i in self.ps.return_params.get(target.key, frozenset()):
                arg = self._arg_node(call, ref, rc, target, i)
                if arg is not None:
                    out |= self.taint_of(arg)
        # drawing from an entropy-tainted generator is itself entropy
        if ref.kind == "method" and isinstance(call.func, ast.Attribute):
            if TAINT_ENTROPY in self.taint_of(call.func.value):
                out.add(TAINT_ENTROPY)
        return frozenset(out)

    def _arg_node(
        self,
        call: ast.Call,
        ref: CallRef,
        rc: ResolvedCall,
        target: FunctionDecl,
        callee_idx: int,
    ) -> ast.expr | None:
        if rc.shift == 1 and callee_idx == 0:
            func = call.func
            return func.value if isinstance(func, ast.Attribute) else None
        pos = callee_idx - rc.shift
        positional = [a for a in call.args if not isinstance(a, ast.Starred)]
        if 0 <= pos < len(positional):
            return positional[pos]
        if callee_idx < len(target.params):
            name = target.params[callee_idx]
            for kw in call.keywords:
                if kw.arg == name:
                    return kw.value
        return None

    def _build_taint_env(self) -> None:
        for _ in range(10):
            changed = False
            for node in self._walk():
                targets: list[ast.expr]
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    if node.value is None:
                        continue
                    targets, value = [node.target], node.value
                elif isinstance(node, ast.NamedExpr):
                    targets, value = [node.target], node.value
                elif isinstance(node, ast.For):
                    targets, value = [node.target], node.iter
                else:
                    continue
                taint = self.taint_of(value)
                if not taint:
                    continue
                for t in ast.walk(ast.Tuple(elts=targets, ctx=ast.Store())):
                    if isinstance(t, ast.Name):
                        cur = self.taint_env.setdefault(t.id, set())
                        if not taint <= cur:
                            cur |= taint
                            changed = True
            if not changed:
                break

    # -- units ---------------------------------------------------------------

    def unit_of(self, expr: ast.expr | None) -> str | None:
        if expr is None:
            return None
        memo = self._unit_memo
        key = id(expr)
        if key in memo:
            return memo[key]
        memo[key] = None  # cycle guard
        unit = self._unit_of(expr)
        memo[key] = unit
        return unit

    def _unit_of(self, expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name):
            if expr.id in self.unit_env:
                return self.unit_env[expr.id]
            return unit_of_name(expr.id)
        if isinstance(expr, ast.Attribute):
            return self._attribute_unit(expr)
        if isinstance(expr, ast.Subscript):
            return self.unit_of(expr.value)
        if isinstance(expr, ast.Call):
            return self._call_unit(expr)
        if isinstance(expr, ast.BinOp):
            left, right = self.unit_of(expr.left), self.unit_of(expr.right)
            if isinstance(expr.op, (ast.Add, ast.Sub)):
                return combine_add(left, right)[0]
            if isinstance(expr.op, ast.Mult):
                return combine_mul(left, right)
            if isinstance(expr.op, (ast.Div, ast.FloorDiv)):
                return combine_div(left, right)
            return None
        if isinstance(expr, ast.UnaryOp):
            return self.unit_of(expr.operand)
        if isinstance(expr, ast.IfExp):
            body, orelse = self.unit_of(expr.body), self.unit_of(expr.orelse)
            return body if body == orelse else None
        if isinstance(expr, ast.NamedExpr):
            return self.unit_of(expr.value)
        return None

    def _attribute_unit(self, expr: ast.Attribute) -> str | None:
        base = expr.value
        recv_type: str | None = None
        if isinstance(base, ast.Name):
            recv_type = self.local_types.get(base.id)
        elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            if base.value.id == "self" and self.fn is not None and self.fn.class_name:
                cls = self.decl.classes.get(self.fn.class_name)
                ann = cls.field_annotations.get(base.attr) if cls else None
                recv_type = class_type_root(self.decl, ann)
        if recv_type is not None:
            unit = self._field_unit(recv_type, expr.attr)
            if unit is not None:
                return unit
        if (
            isinstance(base, ast.Name)
            and base.id == "self"
            and self.fn is not None
            and self.fn.class_name
        ):
            unit = self._field_unit(self.fn.class_name, expr.attr)
            if unit is not None:
                return unit
        return unit_of_name(expr.attr)

    def _field_unit(self, recv_type: str, attr: str) -> str | None:
        cls = self.ps.project.find_class(self.decl, recv_type)
        if cls is None:
            cands = self.ps.project.classes_by_name.get(recv_type, [])
            cls = cands[0] if len(cands) == 1 else None
        if cls is None:
            return None
        ann = cls.field_annotations.get(attr)
        if ann is None:
            return None
        mod = self.ps.project.modules.get(cls.module)
        return unit_of_annotation(ann, mod.resolve_local if mod else None)

    def _call_unit(self, call: ast.Call) -> str | None:
        if isinstance(call.func, ast.Name) and call.func.id in _UNIT_WRAPPERS:
            units = {self.unit_of(a) for a in call.args} - {None}
            if len(units) == 1:
                return next(iter(units))
            return None
        entry = self.calls.get(id(call))
        if entry is None:
            return None
        _, rc = entry
        units = {
            self.ps.return_unit.get(t.key)
            for t in rc.targets
            if self.ps.return_unit.get(t.key) is not None
        }
        if len(units) == 1:
            return next(iter(units))
        return None

    def _build_unit_env(self) -> None:
        for _ in range(4):
            changed = False
            for node in self._walk():
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    target, value = node.target, node.value
                else:
                    continue
                if not isinstance(target, ast.Name) or target.id in self.unit_env:
                    continue
                if isinstance(node, ast.AnnAssign):
                    unit = unit_of_annotation(node.annotation, self.decl.resolve_local)
                    if unit is not None:
                        self.unit_env[target.id] = unit
                        changed = True
                        continue
                self._unit_memo.clear()
                unit = self.unit_of(value)
                if unit is not None:
                    self.unit_env[target.id] = unit
                    changed = True
            if not changed:
                break
        self._unit_memo.clear()


def check_module_interproc(
    decl: ModuleDecl,
    summaries: ProjectSummaries,
    config: LintConfig | None = None,
) -> list[Violation]:
    """Run OPS101–OPS103 over one module using project-wide summaries."""
    config = config if config is not None else LintConfig()
    out: list[Violation] = []
    package = _package_of(decl.module)
    decision = package in config.decision_packages and config.in_scope(
        "OPS101", package
    )
    taint_on = config.in_scope("OPS101", package)
    units_on = config.in_scope("OPS102", package)
    pure = any(
        decl.module == p or decl.module.startswith(p + ".")
        for p in config.pure_modules
    )

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

    # ---- module level ------------------------------------------------------
    top = _module_level_stmts(decl.tree)
    scope = _Scope(decl, summaries, body=top)
    if taint_on:
        _check_global_writes(scope, top, violation, module_level=True)
    if decision:
        _check_decision_taint(scope, violation)

    # ---- functions ---------------------------------------------------------
    for fn in decl.functions.values():
        scope = _Scope(decl, summaries, body=list(fn.node.body), fn=fn)
        if taint_on or pure:
            _check_function_globals(
                scope, fn, violation, pure=pure, taint_on=taint_on
            )
        if decision:
            _check_decision_taint(scope, violation)
        if units_on:
            _check_units(scope, fn, violation)
        if pure:
            _check_purity(decl, fn, summaries, config, violation)

    return out


# ---- OPS101 ----------------------------------------------------------------


def _taint_blames(scope: _Scope, call: ast.Call) -> list[str]:
    """Why a call result is entropy-tainted — empty if OPS101 stays quiet.

    Direct wall-clock / ``random`` / ``np.random`` global-state calls are
    OPS001/OPS002 territory; everything else that carries entropy here
    (project-internal returns, ``id``/``uuid4``-style calls, draws from
    an entropy generator) is OPS101's to report.
    """
    entry = scope.calls.get(id(call))
    if entry is None:
        return []
    ref, rc = entry
    blames: list[str] = []
    if rc.external is not None and rc.external in ENTROPY_CALLS:
        blames.append(f"call to {rc.external}")
    for target in rc.targets:
        taint = scope.ps.return_taint.get(target.key, frozenset())
        if TAINT_ENTROPY in taint:
            blames.append(f"return value of {target.key}")
        for i in scope.ps.return_params.get(target.key, frozenset()):
            arg = scope._arg_node(call, ref, rc, target, i)
            if arg is not None and TAINT_ENTROPY in scope.taint_of(arg):
                blames.append(f"argument forwarded through {target.key}")
    if ref.kind == "method" and isinstance(call.func, ast.Attribute):
        if TAINT_ENTROPY in scope.taint_of(call.func.value):
            blames.append("draw from an entropy-tainted generator")
    return blames


def _check_decision_taint(scope: _Scope, violation) -> None:
    for node in scope._walk():
        if not isinstance(node, ast.Call):
            continue
        blames = _taint_blames(scope, node)
        if blames:
            violation(
                "OPS101",
                node,
                "entropy reaches scheduler/placement decision code: "
                + "; ".join(sorted(set(blames))),
            )


def _tainted_global_kinds(scope: _Scope, value: ast.expr) -> str | None:
    taint = scope.taint_of(value)
    if TAINT_ENTROPY in taint:
        return "entropy (run-to-run varying value)"
    if TAINT_RNG in taint:
        return "np.random.Generator machinery (hidden shared stream)"
    return None


def _check_global_writes(
    scope: _Scope, stmts: list[ast.stmt], violation, *, module_level: bool
) -> None:
    for node in stmts:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if node.value is None:
                continue
            targets, value = [node.target], node.value
        else:
            continue
        if not any(isinstance(t, ast.Name) for t in targets):
            continue
        kinds = _tainted_global_kinds(scope, value)
        if kinds is not None:
            where = "module-level global" if module_level else "global"
            violation(
                "OPS101", node, f"{where} assignment stores {kinds}"
            )


def _check_function_globals(
    scope: _Scope, fn: FunctionDecl, violation, *, pure: bool, taint_on: bool
) -> None:
    declared_global: set[str] = set()
    for node in scope._walk():
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
            if pure:
                violation(
                    "OPS103",
                    node,
                    f"'{fn.name}' writes module global(s) "
                    f"{', '.join(node.names)} — matching kernels must be pure",
                )
    if not declared_global or not taint_on:
        return
    for node in scope._walk():
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if node.value is None:
                continue
            targets, value = [node.target], node.value
        else:
            continue
        names = {t.id for t in targets if isinstance(t, ast.Name)}
        if not names & declared_global:
            continue
        kinds = _tainted_global_kinds(scope, value)
        if kinds is not None:
            violation("OPS101", node, f"global assignment stores {kinds}")


# ---- OPS102 ----------------------------------------------------------------


def _check_units(scope: _Scope, fn: FunctionDecl, violation) -> None:
    declared_ret = declared_return_unit(scope.decl, fn)
    for node in scope._walk():
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            left, right = scope.unit_of(node.left), scope.unit_of(node.right)
            _, mismatch = combine_add(left, right)
            if mismatch:
                op = "+" if isinstance(node.op, ast.Add) else "-"
                violation(
                    "OPS102", node, f"unit mismatch: {left} {op} {right}"
                )
        elif isinstance(node, ast.AugAssign) and isinstance(
            node.op, (ast.Add, ast.Sub)
        ):
            left, right = scope.unit_of(node.target), scope.unit_of(node.value)
            _, mismatch = combine_add(left, right)
            if mismatch:
                violation(
                    "OPS102", node, f"unit mismatch: {left} += {right}"
                )
        elif isinstance(node, ast.Compare):
            left_unit = scope.unit_of(node.left)
            for op, comp in zip(node.ops, node.comparators):
                if not isinstance(op, _ORDERED_CMP):
                    left_unit = scope.unit_of(comp)
                    continue
                right_unit = scope.unit_of(comp)
                if (
                    left_unit is not None
                    and right_unit is not None
                    and left_unit != right_unit
                ):
                    violation(
                        "OPS102",
                        node,
                        f"unit mismatch in comparison: {left_unit} vs {right_unit}",
                    )
                left_unit = right_unit
        elif isinstance(node, ast.Call):
            _check_call_units(scope, node, violation)
        elif isinstance(node, ast.Return) and node.value is not None:
            if declared_ret is not None:
                got = scope.unit_of(node.value)
                if got is not None and got != declared_ret:
                    violation(
                        "OPS102",
                        node,
                        f"returns {got} but is declared to return {declared_ret}",
                    )
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            want = unit_of_annotation(node.annotation, scope.decl.resolve_local)
            got = scope.unit_of(node.value)
            if want is not None and got is not None and want != got:
                violation(
                    "OPS102",
                    node,
                    f"assigns {got} to a binding annotated {want}",
                )


def _check_call_units(scope: _Scope, call: ast.Call, violation) -> None:
    entry = scope.calls.get(id(call))
    if entry is None:
        return
    ref, rc = entry

    def check(arg: ast.expr, want: str | None, label: str) -> None:
        if want is None:
            return
        got = scope.unit_of(arg)
        if got is not None and got != want:
            violation(
                "OPS102",
                call,
                f"argument {label} is {got} but parameter expects {want}",
            )

    if len(rc.targets) == 1:
        target = rc.targets[0]
        units = scope.ps.param_units.get(target.key, ())
        positional = [a for a in call.args if not isinstance(a, ast.Starred)]
        for j, arg in enumerate(positional):
            i = j + rc.shift
            if i < len(units):
                check(arg, units[i], f"{j + 1} of {target.key}")
        for kw in call.keywords:
            if kw.arg is None:
                continue
            try:
                i = target.params.index(kw.arg)
            except ValueError:
                continue
            if i < len(units):
                check(kw.value, units[i], f"'{kw.arg}' of {target.key}")
    elif rc.cls is not None and not rc.targets:
        # dataclass construction: bind args to annotated fields in order
        fields = list(rc.cls.field_annotations)
        mod = scope.ps.project.modules.get(rc.cls.module)
        resolve = mod.resolve_local if mod else None

        def field_unit(name: str) -> str | None:
            ann = rc.cls.field_annotations.get(name)
            return unit_of_annotation(ann, resolve) if ann is not None else None

        positional = [a for a in call.args if not isinstance(a, ast.Starred)]
        for j, arg in enumerate(positional):
            if j < len(fields):
                check(arg, field_unit(fields[j]), f"'{fields[j]}' of {rc.cls.key}")
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in rc.cls.field_annotations:
                check(kw.value, field_unit(kw.arg), f"'{kw.arg}' of {rc.cls.key}")


# ---- OPS103 ----------------------------------------------------------------


def _check_purity(
    decl: ModuleDecl,
    fn: FunctionDecl,
    summaries: ProjectSummaries,
    config: LintConfig,
    violation,
) -> None:
    mutated = summaries.mutates.get(fn.key, frozenset())
    if not mutated:
        return
    local = summaries.locals.get(fn.key)
    for i in sorted(mutated):
        if i >= len(fn.params):
            continue
        root = class_type_root(decl, fn.param_annotation_nodes[i])
        if root not in config.protected_types:
            continue
        how = "directly"
        if local is not None and i not in local.mutated_params:
            for ref, rc in zip(local.calls, summaries.resolved.get(fn.key, [])):
                culprit = next(
                    (
                        t.key
                        for t in rc.targets
                        if any(
                            bind_param(ref, rc, t, j, alias=True) == i
                            for j in summaries.mutates.get(t.key, frozenset())
                        )
                    ),
                    None,
                )
                if culprit is not None:
                    how = f"via {culprit}"
                    break
        violation(
            "OPS103",
            fn.node,
            f"'{fn.local_qualname}' mutates parameter '{fn.params[i]}' of "
            f"protected type {root} ({how}) — matching kernels must be "
            "pure readers of the block layout",
        )
