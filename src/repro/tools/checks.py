"""AST rule implementations (OPS001–OPS006).

Each rule encodes a reproduction-specific invariant that stock linters
cannot express:

* **OPS001** — no unseeded/global RNG.  Randomness must flow through an
  injected ``np.random.Generator``; the process-global ``random`` module
  and ``np.random.<fn>`` convenience functions are banned, and
  ``np.random.default_rng()``/``default_rng(<literal>)`` (unseeded /
  hard-coded fallback seed) must carry a written suppression.
* **OPS002** — no wall-clock reads (``time.time``, ``time.perf_counter``,
  ``datetime.now``, …) inside ``repro.simulate``/``repro.core``.  The
  simulated clock is the only time source; wall-clock instrumentation
  lives in the allow-listed ``repro.simulate.perf``.
* **OPS003** — no iteration over bare ``set``/``frozenset`` values (and
  no ``set.pop()``) without an enclosing ``sorted(...)``: set order is
  hash-seed-dependent, so it must never reach an observable result.
* **OPS004** — no ``==``/``!=`` between float-typed simulation
  quantities (clock readings, rates, byte residues) outside the
  tolerance helpers.
* **OPS005** — hot-path bans: ``list.remove``, ``list.pop(0)``,
  ``list.insert(0, ...)`` and ``+=`` string building inside loops.
* **OPS006** — package-layering DAG enforcement from the declared
  ranking table (``core``/``dfs`` at the bottom, ``simulate`` above,
  ``experiments``/``apps``/``cli`` on top).

The set/str detection is a deliberately small flow-insensitive type
inference: names are classified from literals, constructors,
annotations and ``self.<attr>`` assignments.  It trades soundness for
zero-configuration usefulness — anything it cannot prove is a set or a
str is left alone.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .astutils import WALLCLOCK_CALLS, annotation_roots, dotted, terminal_name
from .config import LintConfig
from .model import Violation

#: rule id → one-line description (drives ``--list-rules`` and the docs).
RULES: dict[str, str] = {
    "OPS000": "invalid suppression pragma (missing reason or unknown rule id)",
    "OPS001": "unseeded/global RNG; inject an np.random.Generator instead",
    "OPS002": "wall-clock read inside simulate/core (simulated time only)",
    "OPS003": "iteration over an unordered set/frozenset without sorted(...)",
    "OPS004": "float ==/!= between simulation quantities (use a tolerance)",
    "OPS005": "hot-path ban: list.remove / pop(0) / insert(0,..) / str += in loop",
    "OPS006": "import breaks the package layering DAG",
}

KNOWN_RULES = frozenset(RULES)

#: np.random attributes that are explicitly-seeded machinery, not global
#: state; constructing them is fine.
_SEEDED_RNG_TYPES = frozenset(
    {"Generator", "SeedSequence", "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64"}
)

_SET_ANNOTATIONS = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "MutableSet", "AbstractSet"}
)

_SET_METHODS_RETURNING_SET = frozenset(
    {"copy", "union", "intersection", "difference", "symmetric_difference"}
)


@dataclass
class _Env:
    """Known value kinds for one lexical scope."""

    set_names: set[str] = field(default_factory=set)
    str_names: set[str] = field(default_factory=set)
    #: ``self.<attr>`` names known to be sets / strs (class-wide).
    set_attrs: set[str] = field(default_factory=set)
    str_attrs: set[str] = field(default_factory=set)


class _Checker(ast.NodeVisitor):
    """One pass over a module, firing every in-scope rule."""

    def __init__(
        self,
        path: str,
        module: str,
        config: LintConfig,
        *,
        is_package: bool,
        relaxed: bool = False,
    ) -> None:
        self.path = path
        self.module = module
        self.config = config
        self.is_package = is_package
        self.relaxed = relaxed
        self.violations: list[Violation] = []
        parts = module.split(".")
        if parts and parts[0] == "repro" and len(parts) > 1:
            self.package: str | None = parts[1]
        elif parts == ["repro"]:
            self.package = ""
        else:
            self.package = None
        #: head alias → dotted module/function it names.
        self.aliases: dict[str, str] = {}
        self.envs: list[_Env] = [_Env()]
        self.loop_depth = 0
        self.func_stack: list[str] = []
        self.type_checking_depth = 0

    # -- plumbing ------------------------------------------------------------

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        if self.relaxed:
            # extra-paths profile: only the configured rules, no package
            # scoping (bench/test files live outside the repro tree)
            if rule not in self.config.extra_rules:
                return
        elif not self.config.in_scope(rule, self.package):
            return
        self.violations.append(
            Violation(
                file=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=rule,
                message=message,
            )
        )

    def _expand(self, dotted: str) -> str:
        head, _, rest = dotted.partition(".")
        full = self.aliases.get(head)
        if full is None:
            return dotted
        return f"{full}.{rest}" if rest else full

    @property
    def env(self) -> _Env:
        return self.envs[-1]

    # -- set/str inference ---------------------------------------------------

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.env.set_names
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self.env.set_attrs
            ):
                return True
            return False
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id in ("set", "frozenset"):
                return True
            if (
                isinstance(fn, ast.Attribute)
                and fn.attr in _SET_METHODS_RETURNING_SET
                and self._is_set_expr(fn.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _is_str_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, str)
        if isinstance(node, ast.JoinedStr):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.env.str_names
        if isinstance(node, ast.Attribute):
            return (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self.env.str_attrs
            )
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id == "str":
                return True
            if isinstance(fn, ast.Attribute) and fn.attr in ("join", "format"):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return self._is_str_expr(node.left) or self._is_str_expr(node.right)
        return False

    def _seed_env(self, env: _Env, nodes: list[ast.stmt]) -> None:
        """Classify names assigned set/str values anywhere in ``nodes``."""
        for stmt in nodes:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        self._classify_into(env, target.id, node.value, attr=False)
                elif isinstance(node, ast.AnnAssign):
                    roots = annotation_roots(node.annotation)
                    target = node.target
                    if isinstance(target, ast.Name):
                        if roots & _SET_ANNOTATIONS:
                            env.set_names.add(target.id)
                        elif "str" in roots:
                            env.str_names.add(target.id)
                    elif (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        if roots & _SET_ANNOTATIONS:
                            env.set_attrs.add(target.attr)
                        elif "str" in roots:
                            env.str_attrs.add(target.attr)

    def _classify_into(
        self, env: _Env, name: str, value: ast.expr, *, attr: bool
    ) -> bool:
        tmp = self.envs
        self.envs = [*tmp, env]
        try:
            if self._is_set_expr(value):
                (env.set_attrs if attr else env.set_names).add(name)
                return True
            if self._is_str_expr(value):
                (env.str_attrs if attr else env.str_names).add(name)
                return True
            return False
        finally:
            self.envs = tmp

    def _class_env(self, node: ast.ClassDef) -> _Env:
        """Collect ``self.<attr>`` / dataclass-field set & str attributes."""
        env = _Env(
            set_attrs=set(self.env.set_attrs), str_attrs=set(self.env.str_attrs)
        )
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                roots = annotation_roots(stmt.annotation)
                if roots & _SET_ANNOTATIONS:
                    env.set_attrs.add(stmt.target.id)
                elif "str" in roots:
                    env.str_attrs.add(stmt.target.id)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target = sub.targets[0]
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    self._classify_into(env, target.attr, sub.value, attr=True)
            elif isinstance(sub, ast.AnnAssign):
                target = sub.target
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    roots = annotation_roots(sub.annotation)
                    if roots & _SET_ANNOTATIONS:
                        env.set_attrs.add(target.attr)
                    elif "str" in roots:
                        env.str_attrs.add(target.attr)
        return env

    # -- imports (aliases + OPS001 + OPS006) ---------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.partition(".")[0]
            self.aliases[bound] = alias.name if alias.asname else alias.name.partition(".")[0]
            if (
                alias.name == "random" or alias.name.startswith("random.")
            ) and not self.relaxed:  # relaxed flags global-state *calls* only
                self._flag(
                    node,
                    "OPS001",
                    "import of the process-global `random` module; "
                    "inject an np.random.Generator instead",
                )
            self._check_layering(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        target = self._resolve_from(node)
        if node.module == "random" and node.level == 0 and not self.relaxed:
            self._flag(
                node,
                "OPS001",
                "import from the process-global `random` module; "
                "inject an np.random.Generator instead",
            )
        for alias in node.names:
            bound = alias.asname or alias.name
            if node.level == 0 and node.module:
                self.aliases[bound] = f"{node.module}.{alias.name}"
        if target is not None:
            if node.module is None and node.level > 0:
                # ``from . import x, y`` — each name is a submodule.
                for alias in node.names:
                    self._check_layering(node, f"{target}.{alias.name}")
            else:
                self._check_layering(node, target)
        self.generic_visit(node)

    def _resolve_from(self, node: ast.ImportFrom) -> str | None:
        """Absolute dotted target of a ``from`` import, if determinable."""
        if node.level == 0:
            return node.module
        parts = self.module.split(".")
        base = parts if self.is_package else parts[:-1]
        up = node.level - 1
        if up > len(base):
            return None
        base = base[: len(base) - up]
        if node.module:
            return ".".join([*base, node.module])
        return ".".join(base) if base else None

    def _check_layering(self, node: ast.stmt, target: str) -> None:
        if self.package is None:
            return
        if self.type_checking_depth > 0:
            # `if TYPE_CHECKING:` imports are erased at runtime — they
            # annotate, they do not create a layering edge.
            return
        tparts = target.split(".")
        if tparts[0] != "repro":
            return
        tpkg = tparts[1] if len(tparts) > 1 else ""
        if tpkg == self.package:
            return
        layers = self.config.layers
        my_rank = layers.get(self.package)
        t_rank = layers.get(tpkg)
        if my_rank is None or t_rank is None:
            return
        if t_rank >= my_rank:
            self._flag(
                node,
                "OPS006",
                f"layering: '{self.package}' (rank {my_rank}) must not import "
                f"'{tpkg}' (rank {t_rank}); imports must point strictly "
                "down the DAG",
            )

    # -- calls (OPS001 / OPS002 / OPS003 / OPS005) ---------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted(node.func)
        if name is not None:
            expanded = self._expand(name)
            self._check_rng_call(node, expanded)
            self._check_wallclock_call(node, expanded)
        if isinstance(node.func, ast.Attribute):
            self._check_method_call(node, node.func)
        self.generic_visit(node)

    def _check_rng_call(self, node: ast.Call, expanded: str) -> None:
        if expanded.startswith("random."):
            if (
                self.relaxed
                and expanded == "random.Random"
                and (node.args or node.keywords)
            ):
                # a *seeded instance* threaded explicitly — benches and
                # tests pin seeds on purpose; random.Random() stays flagged
                return
            self._flag(
                node,
                "OPS001",
                f"call to process-global `{expanded}`; randomness must flow "
                "through an injected np.random.Generator",
            )
            return
        if not expanded.startswith("numpy.random."):
            return
        fn = expanded.rsplit(".", 1)[1]
        if fn in _SEEDED_RNG_TYPES:
            return
        if fn == "default_rng":
            if not node.args and not node.keywords:
                self._flag(
                    node,
                    "OPS001",
                    "np.random.default_rng() without a seed is "
                    "entropy-seeded and unreproducible",
                )
            elif (
                node.args
                and isinstance(node.args[0], ast.Constant)
                and not self.relaxed  # benches/tests pin seeds on purpose
            ):
                self._flag(
                    node,
                    "OPS001",
                    "np.random.default_rng(<literal>) hard-codes a seed; "
                    "accept a seed/Generator from the caller (suppress "
                    "with a reason if this is a documented fallback)",
                )
            return
        self._flag(
            node,
            "OPS001",
            f"`{expanded}` uses numpy's process-global RNG state; "
            "use an injected np.random.Generator",
        )

    def _check_wallclock_call(self, node: ast.Call, expanded: str) -> None:
        if expanded not in WALLCLOCK_CALLS:
            return
        if self.module in self.config.wallclock_allow:
            return
        self._flag(
            node,
            "OPS002",
            f"wall-clock read `{expanded}` in simulation code; use the "
            "simulated clock, or route instrumentation through "
            + " / ".join(self.config.wallclock_allow),
        )

    def _check_method_call(self, node: ast.Call, func: ast.Attribute) -> None:
        receiver = func.value
        if func.attr == "remove" and len(node.args) == 1:
            if self._is_set_expr(receiver):
                return  # set.remove is O(1); order is not observed
            terminal = terminal_name(receiver)
            if terminal in self.config.remove_allow:
                return
            self._flag(
                node,
                "OPS005",
                "list.remove is O(n) on the hot path; use a dict/set "
                "registry or swap-pop (receivers in `remove-allow` are "
                "exempt)",
            )
        elif func.attr == "pop":
            if not node.args and not node.keywords and self._is_set_expr(receiver):
                self._flag(
                    node,
                    "OPS003",
                    "set.pop() removes a hash-order-dependent element; "
                    "pop from sorted(...) or use a deque",
                )
            elif (
                len(node.args) == 1
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == 0
            ):
                self._flag(
                    node,
                    "OPS005",
                    "list.pop(0) is O(n); use collections.deque.popleft()",
                )
        elif func.attr == "insert" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and first.value == 0:
                self._flag(
                    node,
                    "OPS005",
                    "list.insert(0, ...) is O(n); use "
                    "collections.deque.appendleft()",
                )

    # -- iteration (OPS003) --------------------------------------------------

    def _check_iteration(self, iter_node: ast.expr, where: ast.AST) -> None:
        if self._is_set_expr(iter_node):
            self._flag(
                where,
                "OPS003",
                "iteration over an unordered set/frozenset; wrap the "
                "iterable in sorted(...) so results are deterministic",
            )

    def visit_If(self, node: ast.If) -> None:
        is_type_checking = (
            isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"
        ) or (
            isinstance(node.test, ast.Attribute) and node.test.attr == "TYPE_CHECKING"
        )
        if is_type_checking:
            self.type_checking_depth += 1
            self.generic_visit(node)
            self.type_checking_depth -= 1
        else:
            self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node)
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    def _visit_comprehension(
        self, node: ast.ListComp | ast.GeneratorExp | ast.DictComp
    ) -> None:
        for gen in node.generators:
            self._check_iteration(gen.iter, node)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    # SetComp is intentionally exempt: a set built from a set is closed
    # under reordering, so no order dependence can escape.

    # -- float equality (OPS004) ---------------------------------------------

    def _is_float_quantity(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return type(node.value) is float
        terminal = terminal_name(node)
        return terminal is not None and terminal in self.config.float_attrs

    def visit_Compare(self, node: ast.Compare) -> None:
        if self.func_stack and self.func_stack[-1] in self.config.float_eq_helpers:
            self.generic_visit(node)
            return
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[i], operands[i + 1]
            if self._is_float_quantity(left) or self._is_float_quantity(right):
                self._flag(
                    node,
                    "OPS004",
                    "exact ==/!= on a float simulation quantity; compare "
                    "with a tolerance helper or an ordering (<, <=)",
                )
                break
        self.generic_visit(node)

    # -- string building in loops (OPS005) -----------------------------------

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if (
            self.loop_depth > 0
            and isinstance(node.op, ast.Add)
            and (self._is_str_expr(node.target) or self._is_str_expr(node.value))
        ):
            self._flag(
                node,
                "OPS005",
                "string += in a loop is quadratic; accumulate parts in a "
                "list and ''.join at the end",
            )
        self.generic_visit(node)

    # -- scopes --------------------------------------------------------------

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        env = _Env(
            set_attrs=set(self.env.set_attrs),
            str_attrs=set(self.env.str_attrs),
        )
        args = node.args
        for arg in [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ]:
            roots = annotation_roots(arg.annotation)
            if roots & _SET_ANNOTATIONS:
                env.set_names.add(arg.arg)
            elif "str" in roots:
                env.str_names.add(arg.arg)
        self._seed_env(env, node.body)
        self.envs.append(env)
        self.func_stack.append(node.name)
        outer_depth, self.loop_depth = self.loop_depth, 0
        self.generic_visit(node)
        self.loop_depth = outer_depth
        self.func_stack.pop()
        self.envs.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.envs.append(self._class_env(node))
        self.generic_visit(node)
        self.envs.pop()

    def visit_Module(self, node: ast.Module) -> None:
        self._seed_env(self.env, node.body)
        self.generic_visit(node)


def check_module(
    tree: ast.Module,
    *,
    path: str,
    module: str,
    config: LintConfig,
    is_package: bool = False,
    relaxed: bool = False,
) -> list[Violation]:
    """Run every rule over one parsed module.

    ``relaxed`` is the extra-paths profile for benches and tests: only
    the configured ``extra-rules`` fire, package scoping is bypassed
    (those files live outside ``repro``) and OPS001 tolerates pinned
    literal seeds.
    """
    checker = _Checker(
        path, module, config, is_package=is_package, relaxed=relaxed
    )
    checker.visit(tree)
    return checker.violations
