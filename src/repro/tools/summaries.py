"""Per-function summaries and their fixed-point resolution.

The interprocedural rules (OPS101–OPS103, :mod:`repro.tools.interproc`)
never walk a callee's body at a call site.  Instead each function is
reduced once to a :class:`LocalSummary` — which calls it makes
(:class:`~repro.tools.callgraph.CallRef`), which parameters/calls feed
its return value, and which parameters it mutates directly — and a
worklist then propagates four facts over the call graph to a fixed
point:

* ``return_taint`` — taint kinds (:data:`TAINT_ENTROPY`,
  :data:`TAINT_RNG`) a function's return value may carry;
* ``return_params`` — parameters whose *value* may be returned (so a
  call result inherits the taint of the bound arguments);
* ``mutates`` — parameters (by index) transitively mutated;
* ``param_units`` / ``return_unit`` — the OPS102 dimension of each
  parameter and of the return value, combining ``Annotated`` hints,
  name conventions and forwarding inference.

Local summaries are pure functions of one module's source; every run
recomputes them and the fixed point against fresh declaration tables.

Known, deliberate approximations (all favour *fewer* false positives):
value flow only (no control-dependence taint), exact-name argument
binding (a nested call's taint does not flow through an unrelated
callee), and call results insulate mutation (mutating a returned copy
never counts against the callee's receiver).
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field

from .astutils import (
    ENTROPY_CALLS,
    WALLCLOCK_CALLS,
    annotation_roots,
    dotted,
    parse_string_annotation,
    root_name,
    terminal_name,
)
from .callgraph import (
    CallRef,
    FunctionDecl,
    ModuleDecl,
    Project,
    ResolvedCall,
    build_call_ref,
)
from .units import (
    combine_add,
    combine_div,
    combine_mul,
    unit_of_annotation,
    unit_of_name,
)

#: Value differs between two identical invocations of the program
#: (wall clock, ``id()``, ``os.urandom``, an *unseeded* Generator, …).
TAINT_ENTROPY = "entropy"
#: Value is np.random Generator machinery (seeded or not) — fine to
#: thread explicitly, suspect when conjured inside a decision path.
TAINT_RNG = "rng"

#: Bound methods that mutate their receiver in-place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "sort",
        "reverse",
        "add",
        "discard",
        "update",
        "setdefault",
        "appendleft",
        "popleft",
        "extendleft",
        "rotate",
    }
)

#: External callables that mutate a positional argument in place.
EXTERNAL_MUTATORS: dict[str, tuple[int, ...]] = {
    "heapq.heappush": (0,),
    "heapq.heappop": (0,),
    "heapq.heapify": (0,),
    "bisect.insort": (0,),
    "bisect.insort_left": (0,),
    "bisect.insort_right": (0,),
    "random.shuffle": (0,),
}

#: numpy.random names that are seeded-RNG machinery, not raw entropy.
_RNG_MACHINERY = frozenset(
    {
        "Generator",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
        "SeedSequence",
    }
)

#: Fully-qualified annotation targets that mark a parameter as an RNG.
_RNG_ANNOTATIONS = frozenset(
    {
        "numpy.random.Generator",
        "numpy.random.RandomState",
        "numpy.random.BitGenerator",
    }
)

_BUILTIN_NUMERIC_WRAPPERS = frozenset(
    {"min", "max", "abs", "sum", "float", "int", "round"}
)

#: Builtin calls that materialize a container sized by their argument.
_ALLOC_BUILTINS = frozenset({"list", "dict", "set", "tuple", "frozenset", "sorted"})

#: ``numpy.*`` constructors that allocate an array sized by their argument.
_NP_CONSTRUCTORS = frozenset(
    {
        "array",
        "asarray",
        "ascontiguousarray",
        "zeros",
        "ones",
        "empty",
        "full",
        "arange",
        "linspace",
        "concatenate",
        "stack",
        "vstack",
        "hstack",
        "column_stack",
        "tile",
        "repeat",
        "copy",
        "fromiter",
        "zeros_like",
        "ones_like",
        "empty_like",
        "full_like",
    }
)

#: Calls transparent to axis extraction: the iteration axis of
#: ``sorted(group)`` or ``enumerate(members)`` is the argument's axis.
_AXIS_TRANSPARENT_CALLS = frozenset(
    {
        "range",
        "enumerate",
        "reversed",
        "sorted",
        "list",
        "tuple",
        "set",
        "frozenset",
        "iter",
        "zip",
        "len",
        "min",
        "max",
    }
)

#: Method calls transparent to axis extraction through their receiver.
_AXIS_TRANSPARENT_METHODS = frozenset({"items", "keys", "values", "copy"})


def axis_of(expr: ast.expr) -> str:
    """The iteration axis token of an expression.

    A *name* token (``members``, ``_dirty_groups``) is classified
    small/linear later against the configured ``small_axes``; the
    special tokens are ``<const>`` (syntactically fixed size),
    ``<element>`` (one subscripted element of a container), ``<while>``
    (data-dependent trip count) and ``<unknown>``.
    """
    if isinstance(expr, ast.Constant):
        return "<const>"
    if isinstance(expr, (ast.Name, ast.Attribute)):
        return terminal_name(expr) or "<unknown>"
    if isinstance(expr, ast.Subscript):
        return "<element>"
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        return "<const>"  # literal display: arity is fixed in the source
    if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        return axis_of(expr.generators[0].iter)
    if isinstance(expr, ast.DictComp):
        return axis_of(expr.generators[0].iter)
    if isinstance(expr, (ast.Starred, ast.Await, ast.NamedExpr)):
        return axis_of(expr.value)
    if isinstance(expr, ast.Call):
        fname = (
            terminal_name(expr.func)
            if isinstance(expr.func, (ast.Name, ast.Attribute))
            else None
        )
        if fname in _AXIS_TRANSPARENT_CALLS:
            for arg in expr.args:
                if not isinstance(arg, ast.Constant):
                    return axis_of(arg)
            return "<const>"
        if fname in _AXIS_TRANSPARENT_METHODS and isinstance(
            expr.func, ast.Attribute
        ):
            return axis_of(expr.func.value)
        return fname or "<unknown>"
    return "<unknown>"


@dataclass
class AllocSite:
    """One scaling allocation inside a function body (cost lattice input).

    ``own`` is the build's intrinsic iteration axes (what it copies),
    ``axes`` the enclosing loop axes outermost-first.  Constant-size
    builds (empty displays, literal displays, ``np.zeros(3)``) are never
    recorded — the lattice tracks sizes that scale, not object churn.
    """

    line: int
    col: int
    kind: str
    own: tuple[str, ...]
    axes: tuple[str, ...]
    waived: bool = False


#: Type roots that never name a project class.
_GENERIC_TYPE_ROOTS = frozenset(
    {
        "Annotated",
        "Any",
        "Callable",
        "ClassVar",
        "Counter",
        "DefaultDict",
        "Deque",
        "Dict",
        "Final",
        "FrozenSet",
        "Iterable",
        "Iterator",
        "List",
        "Literal",
        "Mapping",
        "Optional",
        "Self",
        "Sequence",
        "Set",
        "Tuple",
        "Type",
        "Union",
    }
)


def external_taint(target: str, nargs: int) -> frozenset[str]:
    """Taint kinds produced by calling an external dotted name."""
    if target in WALLCLOCK_CALLS or target in ENTROPY_CALLS:
        return frozenset({TAINT_ENTROPY})
    if target == "numpy.random.default_rng" or target == "random.Random":
        if nargs == 0:
            return frozenset({TAINT_ENTROPY, TAINT_RNG})
        return frozenset({TAINT_RNG})
    if target.startswith("numpy.random."):
        tail = target.rsplit(".", 1)[-1]
        if tail in _RNG_MACHINERY:
            return frozenset({TAINT_RNG})
        # module-level draw functions share unseeded global state
        return frozenset({TAINT_ENTROPY})
    if target.startswith("random.") or target == "random":
        return frozenset({TAINT_ENTROPY})
    return frozenset()


def is_rng_annotation(decl: ModuleDecl, ann: ast.expr | None) -> bool:
    """True when an annotation names ``np.random.Generator`` (or kin)."""
    ann = parse_string_annotation(ann)
    if ann is None:
        return False
    for node in ast.walk(ann):
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = dotted(node)
            if name is not None and decl.expand(name) in _RNG_ANNOTATIONS:
                return True
    return False


def class_type_root(decl: ModuleDecl, ann: ast.expr | None) -> str | None:
    """Best-effort class name an annotation assigns to a binding."""
    for root in sorted(annotation_roots(ann)):
        if root and root[0].isupper() and root not in _GENERIC_TYPE_ROOTS:
            return root
    return None


@dataclass
class LocalSummary:
    """Facts about one function derivable from its own body alone."""

    calls: list[CallRef] = field(default_factory=list)
    #: indices into ``calls`` whose result may reach the return value.
    return_calls: set[int] = field(default_factory=set)
    #: parameter indices whose value may reach the return value.
    return_params: set[int] = field(default_factory=set)
    #: parameter indices mutated directly (attr/item writes, del).
    mutated_params: set[int] = field(default_factory=set)
    #: return unit inferred from the body's own names/arithmetic.
    return_unit_local: str | None = None
    #: scaling allocation sites (OPS301 + the cost fixed point).
    allocs: list[AllocSite] = field(default_factory=list)
    #: per-call-site enclosing loop axes, aligned with ``calls``.
    call_axes: list[tuple[str, ...]] = field(default_factory=list)


def infer_local_types(
    decl: ModuleDecl, fn: FunctionDecl
) -> dict[str, str]:
    """Map local names (incl. params) to inferred class names."""
    types: dict[str, str] = {}
    for name, ann in zip(fn.params, fn.param_annotation_nodes):
        root = class_type_root(decl, ann)
        if root is not None:
            types[name] = root

    def constructed(func: ast.expr) -> str | None:
        name = dotted(func) if isinstance(func, (ast.Name, ast.Attribute)) else None
        if name is None:
            return None
        if isinstance(func, ast.Name):
            if name in decl.classes:
                return name
            if name in decl.functions:
                return class_type_root(decl, decl.functions[name].node.returns)
        last = decl.expand(name).rsplit(".", 1)[-1]
        if last and last[0].isupper() and last not in _GENERIC_TYPE_ROOTS:
            return last
        return None

    for node in ast.walk(fn.node):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
        ):
            cname = constructed(node.value.func)
            if cname is not None:
                types[node.targets[0].id] = cname
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            root = class_type_root(decl, node.annotation)
            if root is not None:
                types[node.target.id] = root
    return types


def declared_param_units(decl: ModuleDecl, fn: FunctionDecl) -> list[str | None]:
    """Per-parameter unit: ``Annotated`` hint first, else name convention."""
    units: list[str | None] = []
    for name, ann in zip(fn.params, fn.param_annotation_nodes):
        unit = unit_of_annotation(ann, decl.resolve_local)
        if unit is None:
            unit = unit_of_name(name)
        units.append(unit)
    return units


def declared_return_unit(decl: ModuleDecl, fn: FunctionDecl) -> str | None:
    return unit_of_annotation(fn.node.returns, decl.resolve_local)


def _flatten_targets(targets: list[ast.expr]) -> list[ast.expr]:
    out: list[ast.expr] = []
    stack = list(targets)
    while stack:
        t = stack.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            stack.extend(t.elts)
        elif isinstance(t, ast.Starred):
            stack.append(t.value)
        else:
            out.append(t)
    return out


def _collect_cost_facts(
    decl: ModuleDecl,
    fn: FunctionDecl,
    call_idx: dict[int, int],
    n_calls: int,
    alloc_ok: frozenset[int] | set[int],
) -> tuple[list[AllocSite], list[tuple[str, ...]]]:
    """Allocation sites and per-call loop axes for one function body.

    A single recursive walk maintaining the loop-axis stack.  ``cold``
    subtrees (``raise``/``assert`` payloads) contribute nothing — error
    paths may build messages freely.  Nested ``def``/``lambda`` bodies
    are skipped: their iteration context is their own.
    """
    allocs: list[AllocSite] = []
    call_axes: list[tuple[str, ...]] = [() for _ in range(n_calls)]
    stack: list[str] = []

    def add_alloc(node: ast.AST, kind: str, own: tuple[str, ...]) -> None:
        if all(axis == "<const>" for axis in own):
            return  # constant-size build: churn, not scaling
        allocs.append(
            AllocSite(
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                kind=kind,
                own=own,
                axes=tuple(stack),
                waived=getattr(node, "lineno", 1) in alloc_ok,
            )
        )

    def classify_call(node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _ALLOC_BUILTINS and node.args:
                add_alloc(node, f"{func.id}() build", (axis_of(node.args[0]),))
                return
        if isinstance(func, (ast.Name, ast.Attribute)):
            name = dotted(func)
            full = decl.expand(name) if name is not None else None
            if full is not None and full.startswith("numpy."):
                tail = full.rsplit(".", 1)[-1]
                if tail in _NP_CONSTRUCTORS and node.args:
                    add_alloc(node, f"np.{tail} build", (axis_of(node.args[0]),))

    def walk(node: ast.AST, cold: bool) -> None:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ) and node is not fn.node:
            return
        if isinstance(node, (ast.Raise, ast.Assert)):
            cold = True
        if isinstance(node, ast.Call):
            idx = call_idx.get(id(node))
            if idx is not None and not cold:
                call_axes[idx] = tuple(stack)
            if not cold:
                classify_call(node)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            if not cold:
                label = {
                    ast.ListComp: "list comprehension",
                    ast.SetComp: "set comprehension",
                    ast.DictComp: "dict comprehension",
                }[type(node)]
                add_alloc(
                    node,
                    label,
                    tuple(axis_of(gen.iter) for gen in node.generators),
                )
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            str_side = any(
                isinstance(side, ast.JoinedStr)
                or (isinstance(side, ast.Constant) and isinstance(side.value, str))
                for side in (node.left, node.right)
            )
            if str_side and stack and not cold:
                add_alloc(node, "string concatenation", ("<str>",))

        if isinstance(node, (ast.For, ast.AsyncFor)):
            walk(node.iter, cold)
            walk(node.target, cold)
            stack.append(axis_of(node.iter))
            for child in (*node.body, *node.orelse):
                walk(child, cold)
            stack.pop()
            return
        if isinstance(node, ast.While):
            stack.append("<while>")
            walk(node.test, cold)
            for child in (*node.body, *node.orelse):
                walk(child, cold)
            stack.pop()
            return
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            pushed = 0
            for gen in node.generators:
                walk(gen.iter, cold)
                stack.append(axis_of(gen.iter))
                pushed += 1
                walk(gen.target, cold)
                for cond in gen.ifs:
                    walk(cond, cold)
            if isinstance(node, ast.DictComp):
                walk(node.key, cold)
                walk(node.value, cold)
            else:
                walk(node.elt, cold)
            del stack[-pushed:]
            return
        for child in ast.iter_child_nodes(node):
            walk(child, cold)

    walk(fn.node, False)
    return allocs, call_axes


def summarize_function(
    decl: ModuleDecl,
    fn: FunctionDecl,
    *,
    alloc_ok: frozenset[int] | set[int] = frozenset(),
) -> LocalSummary:
    """Reduce one function body to its :class:`LocalSummary`.

    ``alloc_ok`` is the set of source lines carrying a well-formed
    ``# opass: alloc-ok -- reason`` waiver (parsed from the module text
    by the caller); allocation sites on those lines are recorded as
    waived and excluded from the cost fixed point, so an amortization
    argument made once stays compositional under caching.
    """
    params = {name: i for i, name in enumerate(fn.params)}
    local_types = infer_local_types(decl, fn)
    summary = LocalSummary()

    call_idx: dict[int, int] = {}
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Call):
            ref = build_call_ref(
                decl,
                node,
                params=params,
                local_types=local_types,
                current_class=fn.class_name,
            )
            if ref is not None:
                call_idx[id(node)] = len(summary.calls)
                summary.calls.append(ref)

    summary.allocs, summary.call_axes = _collect_cost_facts(
        decl, fn, call_idx, len(summary.calls), alloc_ok
    )

    _FRESH_CONTAINERS = (
        ast.List,
        ast.Tuple,
        ast.Set,
        ast.Dict,
        ast.ListComp,
        ast.SetComp,
        ast.DictComp,
        ast.GeneratorExp,
        ast.BinOp,
        ast.UnaryOp,
        ast.Compare,
        ast.JoinedStr,
    )

    def origins(expr: ast.expr | None) -> tuple[set[int], set[int], set[int]]:
        """(alias params, derived params, call indices) flowing into expr.

        *Alias* origins reach into a parameter's object graph (mutating
        them mutates the parameter); *derived* origins only carry its
        value (a comprehension over a param builds a fresh container, so
        taint flows but mutation does not).
        """
        if expr is None:
            return set(), set(), set()
        if isinstance(expr, ast.Name):
            if expr.id in env:
                a, d, c = env[expr.id]
                return set(a), set(d), set(c)
            if expr.id in params:
                return {params[expr.id]}, set(), set()
            return set(), set(), set()
        if isinstance(expr, ast.Call):
            idx = call_idx.get(id(expr))
            return set(), set(), ({idx} if idx is not None else set())
        if isinstance(expr, (ast.Attribute, ast.Subscript, ast.Starred, ast.Await)):
            return origins(expr.value)
        if isinstance(expr, ast.NamedExpr):
            return origins(expr.value)
        if isinstance(expr, ast.IfExp):
            a1, d1, c1 = origins(expr.body)
            a2, d2, c2 = origins(expr.orelse)
            return a1 | a2, d1 | d2, c1 | c2
        fresh = isinstance(expr, _FRESH_CONTAINERS)
        a_out: set[int] = set()
        d_out: set[int] = set()
        c_out: set[int] = set()
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, (ast.expr, ast.comprehension)):
                if isinstance(child, ast.comprehension):
                    a, d, c = origins(child.iter)
                else:
                    a, d, c = origins(child)
                if fresh:
                    d_out |= a | d
                else:
                    a_out |= a
                    d_out |= d
                c_out |= c
        return a_out, d_out, c_out

    # flow-insensitive assignment environment, iterated to a local fixed
    # point so chains (x = rng; y = x; return y) resolve.
    env: dict[str, tuple[set[int], set[int], set[int]]] = {}
    for _ in range(10):
        changed = False
        for node in ast.walk(fn.node):
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
            a, d, c = origins(value)
            for t in _flatten_targets(targets):
                if not isinstance(t, ast.Name):
                    continue
                cur = env.setdefault(t.id, (set(), set(), set()))
                if not (a <= cur[0] and d <= cur[1] and c <= cur[2]):
                    cur[0].update(a)
                    cur[1].update(d)
                    cur[2].update(c)
                    changed = True
        if not changed:
            break

    # direct mutations: attribute/item writes or deletes rooted in a
    # parameter, or in a local aliasing part of a parameter's object graph
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        else:
            continue
        for t in _flatten_targets(targets):
            if not isinstance(t, (ast.Attribute, ast.Subscript)):
                continue
            root = root_name(t)
            if root is None:
                continue
            if root in env:
                summary.mutated_params.update(env[root][0])
            elif root in params:
                summary.mutated_params.add(params[root])

    # mutating method calls on locals that alias a parameter's object
    # graph (``c = a or b; c.append(x)``).  Param-rooted receivers are
    # handled by the resolver's builtin-mutator fallback via recv_param;
    # only the env aliases are invisible to the CallRef.
    for node in ast.walk(fn.node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
        ):
            recv = node.func.value
            while isinstance(recv, (ast.Attribute, ast.Subscript, ast.Starred)):
                recv = recv.value
            if isinstance(recv, ast.Name) and recv.id in env:
                summary.mutated_params.update(env[recv.id][0])

    # return flow + best-effort local return unit
    return_units: set[str] = set()
    saw_unknown_unit = False
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        a, d, c = origins(node.value)
        summary.return_params |= a | d
        summary.return_calls |= c
        unit = _unit_of_expr_local(decl, fn, node.value)
        if unit is None:
            saw_unknown_unit = True
        else:
            return_units.add(unit)
    if len(return_units) == 1 and not saw_unknown_unit:
        summary.return_unit_local = next(iter(return_units))
    return summary


def _unit_of_expr_local(
    decl: ModuleDecl, fn: FunctionDecl, expr: ast.expr
) -> str | None:
    """Unit of an expression from names and arithmetic alone (no calls)."""
    units = declared_param_units(decl, fn)
    by_name = dict(zip(fn.params, units))

    def unit(e: ast.expr) -> str | None:
        if isinstance(e, ast.Name):
            if e.id in by_name and by_name[e.id] is not None:
                return by_name[e.id]
            return unit_of_name(e.id)
        if isinstance(e, ast.Attribute):
            return unit_of_name(e.attr)
        if isinstance(e, ast.BinOp):
            left, right = unit(e.left), unit(e.right)
            if isinstance(e.op, (ast.Add, ast.Sub)):
                return combine_add(left, right)[0]
            if isinstance(e.op, ast.Mult):
                return combine_mul(left, right)
            if isinstance(e.op, (ast.Div, ast.FloorDiv)):
                return combine_div(left, right)
            return None
        if isinstance(e, ast.IfExp):
            body, orelse = unit(e.body), unit(e.orelse)
            return body if body == orelse else None
        if isinstance(e, ast.Call) and isinstance(e.func, ast.Name):
            if e.func.id in _BUILTIN_NUMERIC_WRAPPERS and e.args:
                arg_units = {unit(a) for a in e.args} - {None}
                if len(arg_units) == 1:
                    return next(iter(arg_units))
        return None

    return unit(expr)


def summarize_module(
    decl: ModuleDecl, *, alloc_ok: frozenset[int] | set[int] = frozenset()
) -> dict[str, LocalSummary]:
    """Local summaries for every function in a module, by local qualname."""
    return {
        local: summarize_function(decl, fn, alloc_ok=alloc_ok)
        for local, fn in decl.functions.items()
    }


def bind_param(
    ref: CallRef,
    rc: ResolvedCall,
    target: FunctionDecl,
    callee_idx: int,
    *,
    alias: bool = False,
) -> int | None:
    """Caller parameter bound to ``target``'s parameter ``callee_idx``.

    ``alias=True`` also matches arguments *rooted* in a caller parameter
    (``cluster.datanodes[0]``) — right for mutation and taint, wrong for
    unit forwarding (an object is not its attribute's dimension).
    """
    if rc.shift == 1 and callee_idx == 0:
        return ref.recv_param
    pos = callee_idx - rc.shift
    args = ref.arg_roots if alias else ref.arg_params
    if 0 <= pos < len(args) and args[pos] is not None:
        return args[pos]
    if callee_idx < len(target.params):
        kws = ref.kw_roots if alias else ref.kw_params
        return kws.get(target.params[callee_idx])
    return None


@dataclass
class ProjectSummaries:
    """Fixed-point-resolved facts for every function in the project."""

    project: Project
    locals: dict[str, LocalSummary]
    resolved: dict[str, list[ResolvedCall]]
    return_taint: dict[str, frozenset[str]]
    return_params: dict[str, frozenset[int]]
    mutates: dict[str, frozenset[int]]
    param_units: dict[str, tuple[str | None, ...]]
    return_unit: dict[str, str | None]
    #: worklist iterations until convergence (observability / tests).
    rounds: int = 0


def resolve_summaries(
    project: Project, local_summaries: dict[str, LocalSummary]
) -> ProjectSummaries:
    """Propagate local summaries over the call graph to a fixed point."""
    locals_ = local_summaries
    resolved = {
        key: [project.resolve_ref(ref) for ref in summary.calls]
        for key, summary in locals_.items()
    }

    return_taint: dict[str, frozenset[str]] = {}
    return_params: dict[str, frozenset[int]] = {}
    mutates: dict[str, frozenset[int]] = {}
    param_units: dict[str, tuple[str | None, ...]] = {}
    return_unit: dict[str, str | None] = {}
    declared_units: dict[str, tuple[str | None, ...]] = {}
    declared_ret: dict[str, str | None] = {}

    for key, summary in locals_.items():
        fn = project.functions.get(key)
        decl = project.modules.get(fn.module) if fn is not None else None
        return_taint[key] = frozenset()
        return_params[key] = frozenset(summary.return_params)
        mutates[key] = frozenset(summary.mutated_params)
        if fn is not None and decl is not None:
            units = tuple(declared_param_units(decl, fn))
            ret = declared_return_unit(decl, fn)
        else:
            units, ret = (), None
        declared_units[key] = units
        declared_ret[key] = ret
        param_units[key] = units
        return_unit[key] = ret if ret is not None else summary.return_unit_local

    callers: dict[str, set[str]] = {}
    for key, rcs in resolved.items():
        for rc in rcs:
            for target in rc.targets:
                if target.key in locals_:
                    callers.setdefault(target.key, set()).add(key)

    work: deque[str] = deque(locals_)
    queued = set(work)
    visits: dict[str, int] = {}
    rounds = 0
    while work:
        key = work.popleft()
        queued.discard(key)
        if visits.get(key, 0) >= 20:  # safety valve for unit oscillation
            continue
        visits[key] = visits.get(key, 0) + 1
        rounds += 1

        summary = locals_[key]
        fn = project.functions.get(key)
        rt: set[str] = set()
        rp: set[int] = set(summary.return_params)
        mut: set[int] = set(summary.mutated_params)
        unit_candidates: dict[int, set[str]] = {}
        ret_call_units: set[str] = set()

        for idx, (ref, rc) in enumerate(zip(summary.calls, resolved[key])):
            if idx in summary.return_calls:
                if rc.external is not None:
                    rt |= external_taint(rc.external, ref.nargs)
                for target in rc.targets:
                    rt |= return_taint.get(target.key, frozenset())
                    for i in return_params.get(target.key, frozenset()):
                        bound = bind_param(ref, rc, target, i, alias=True)
                        if bound is not None:
                            rp.add(bound)
                    unit = return_unit.get(target.key)
                    if unit is not None:
                        ret_call_units.add(unit)

            for target in rc.targets:
                for i in mutates.get(target.key, frozenset()):
                    bound = bind_param(ref, rc, target, i, alias=True)
                    if bound is not None:
                        mut.add(bound)
                for i, unit in enumerate(param_units.get(target.key, ())):
                    if unit is None:
                        continue
                    bound = bind_param(ref, rc, target, i)
                    if bound is not None:
                        unit_candidates.setdefault(bound, set()).add(unit)
            if (
                not rc.targets
                and ref.kind == "method"
                and ref.target in MUTATING_METHODS
                and ref.recv_param is not None
            ):
                mut.add(ref.recv_param)
            if rc.external in EXTERNAL_MUTATORS:
                for i in EXTERNAL_MUTATORS[rc.external]:
                    if i < len(ref.arg_params) and ref.arg_params[i] is not None:
                        mut.add(ref.arg_params[i])

        # units: declared/convention beats inference; inference fills the
        # gaps only when every forwarding edge agrees
        base_units = declared_units.get(key, ())
        new_units = list(base_units)
        n_params = len(fn.params) if fn is not None else len(new_units)
        while len(new_units) < n_params:
            new_units.append(None)
        for i, unit in enumerate(new_units):
            if unit is None and len(unit_candidates.get(i, ())) == 1:
                new_units[i] = next(iter(unit_candidates[i]))
        new_ret = declared_ret.get(key)
        if new_ret is None:
            new_ret = summary.return_unit_local
        if new_ret is None and len(ret_call_units) == 1:
            new_ret = next(iter(ret_call_units))

        new_state = (
            frozenset(rt),
            frozenset(rp),
            frozenset(mut),
            tuple(new_units),
            new_ret,
        )
        old_state = (
            return_taint[key],
            return_params[key],
            mutates[key],
            param_units[key],
            return_unit[key],
        )
        if new_state != old_state:
            return_taint[key] = new_state[0]
            return_params[key] = new_state[1]
            mutates[key] = new_state[2]
            param_units[key] = new_state[3]
            return_unit[key] = new_state[4]
            for caller in callers.get(key, ()):
                if caller not in queued:
                    work.append(caller)
                    queued.add(caller)

    return ProjectSummaries(
        project=project,
        locals=locals_,
        resolved=resolved,
        return_taint=return_taint,
        return_params=return_params,
        mutates=mutates,
        param_units=param_units,
        return_unit=return_unit,
        rounds=rounds,
    )
