"""Project-wide call graph: module index, declarations, call resolution.

The interprocedural passes need to answer "which function does this call
expression reach?" across the whole ``repro`` tree.  This module builds
the supporting index from nothing but ASTs:

* :class:`ModuleDecl` — one parsed module: its import alias table and
  its function/class declarations;
* :class:`Project` — the set of analyzed modules plus global lookup
  tables (dotted function names, class names for dynamic dispatch);
* :class:`CallRef` — a call expression reduced to a symbolic form
  (summaries hold no AST nodes);
* :meth:`Project.resolve_ref` — resolution of a :class:`CallRef` to
  :class:`FunctionDecl` targets or an external dotted name.

Resolution is deliberately best-effort and *optimistic*: a call that
cannot be resolved contributes nothing (no taint, no side effects).
Method calls resolve through the receiver's inferred type when one is
known (annotation, ``Cls(...)`` construction, or a callee's declared
return type); otherwise the **dynamic dispatch fallback** applies — the
union of every known class method with that name, so a mutation or
taint in *any* candidate is assumed possible.

``if TYPE_CHECKING:`` imports bind aliases like any other import, so
annotations naming their types resolve.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from .astutils import annotation_roots, dotted, iter_arguments
from .model import module_directive

@dataclass
class FunctionDecl:
    """One function or method declaration."""

    module: str
    local_qualname: str  # "f" or "Cls.f"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: list[str]
    param_annotation_nodes: list[ast.expr | None]
    class_name: str | None = None

    @property
    def key(self) -> str:
        """Project-unique dotted key, e.g. ``repro.core.opass.f``."""
        return f"{self.module}.{self.local_qualname}"

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ClassDecl:
    """One class declaration: methods, bases, annotated fields."""

    module: str
    name: str
    bases: list[str] = field(default_factory=list)
    methods: dict[str, str] = field(default_factory=dict)  # name → local_qualname
    #: field name → annotation AST (dataclass-style annotated attributes).
    field_annotations: dict[str, ast.expr] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass
class ModuleDecl:
    """Declarations extracted from one module's AST."""

    module: str
    path: str
    tree: ast.Module
    is_package: bool = False
    #: local binding → dotted import target (``np`` → ``numpy``).
    aliases: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionDecl] = field(default_factory=dict)
    classes: dict[str, ClassDecl] = field(default_factory=dict)
    #: module-level ``name = <dotted>`` aliases (``wall_clock = time.perf_counter``).
    assign_aliases: dict[str, str] = field(default_factory=dict)
    #: True when a ``# opass-lint: module=`` directive placed this source
    #: in ``module``'s scope: it stands for part of the module, not all.
    snippet: bool = False

    def resolve_local(self, name: str) -> str | None:
        """Dotted target a local binding refers to, if imported/aliased."""
        if name in self.aliases:
            return self.aliases[name]
        if name in self.assign_aliases:
            return self.assign_aliases[name]
        return None

    def expand(self, dotted_name: str) -> str:
        """Expand the head of ``a.b.c`` through the alias table."""
        head, _, rest = dotted_name.partition(".")
        full = self.resolve_local(head)
        if full is None:
            return dotted_name
        return f"{full}.{rest}" if rest else full


def _module_from_path(path: Path) -> tuple[str, bool]:
    """Infer the dotted module from a file path (``.../repro/x/y.py``).

    Returns ``(module, is_package)``.  Files outside a ``repro`` tree get
    a synthetic top-level name, which keeps package-scoped rules off.
    """
    parts = list(path.parts)
    is_package = path.name == "__init__.py"
    if "repro" in parts:
        start = len(parts) - 1 - parts[::-1].index("repro")
        mod_parts = parts[start:]
    else:
        mod_parts = [path.name]
    if is_package:
        mod_parts = mod_parts[:-1]
    elif mod_parts[-1].endswith(".py"):
        mod_parts[-1] = mod_parts[-1][: -len(".py")]
    return ".".join(mod_parts), is_package


def _resolve_relative(
    module: str, is_package: bool, node: ast.ImportFrom
) -> str | None:
    """Absolute dotted target of a ``from`` import, if determinable."""
    if node.level == 0:
        return node.module
    parts = module.split(".")
    base = parts if is_package else parts[:-1]
    up = node.level - 1
    if up > len(base):
        return None
    base = base[: len(base) - up]
    if node.module:
        return ".".join([*base, node.module])
    return ".".join(base) if base else None


def parse_module(
    source: str,
    *,
    path: str = "<string>",
    module: str | None = None,
    is_package: bool | None = None,
) -> ModuleDecl:
    """Build a :class:`ModuleDecl` from source text."""
    directive = module_directive(source)
    snippet = False
    if module is None:
        if directive is not None:
            module = directive
            inferred_pkg = False
            snippet = True
        else:
            module, inferred_pkg = _module_from_path(Path(path))
        if is_package is None:
            is_package = inferred_pkg
    if is_package is None:
        is_package = path.endswith("__init__.py")

    tree = ast.parse(source, filename=path)
    decl = ModuleDecl(
        module=module, path=path, tree=tree, is_package=is_package, snippet=snippet
    )

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                decl.aliases[bound] = (
                    alias.name if alias.asname else alias.name.partition(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            target = _resolve_relative(module, is_package, node)
            if target is None:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name
                decl.aliases[bound] = f"{target}.{alias.name}"

    def add_function(
        node: ast.FunctionDef | ast.AsyncFunctionDef, class_name: str | None
    ) -> None:
        args = iter_arguments(node.args)
        local = f"{class_name}.{node.name}" if class_name else node.name
        decl.functions[local] = FunctionDecl(
            module=module,
            local_qualname=local,
            node=node,
            params=[a.arg for a in args],
            param_annotation_nodes=[a.annotation for a in args],
            class_name=class_name,
        )

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_function(node, None)
        elif isinstance(node, ast.ClassDef):
            cls = ClassDecl(module=module, name=node.name)
            for base in node.bases:
                base_name = dotted(base)
                if base_name is not None:
                    cls.bases.append(base_name.rsplit(".", 1)[-1])
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add_function(sub, node.name)
                    cls.methods[sub.name] = f"{node.name}.{sub.name}"
                elif isinstance(sub, ast.AnnAssign) and isinstance(
                    sub.target, ast.Name
                ):
                    cls.field_annotations[sub.target.id] = sub.annotation
            decl.classes[node.name] = cls
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            value_dotted = dotted(node.value)
            if isinstance(target, ast.Name) and value_dotted is not None:
                decl.assign_aliases[target.id] = decl.expand(value_dotted)

    return decl


@dataclass
class CallRef:
    """A call expression in symbolic form.

    ``kind`` is ``"dotted"`` (plain function, imported name, constructor,
    or explicit ``Cls.method`` — target is the alias-expanded dotted
    name) or ``"method"`` (bound receiver — target is the method name).
    ``recv_param``/``arg_params``/``kw_params`` record which *caller
    parameters* feed the call, which is all the fixed point needs to
    compose taint, mutation and unit information across call edges.
    """

    kind: str
    target: str
    module: str
    line: int = 0
    col: int = 0
    recv_type: str | None = None
    recv_param: int | None = None
    arg_params: list[int | None] = field(default_factory=list)
    kw_params: dict[str, int | None] = field(default_factory=dict)
    #: like arg_params/kw_params but matching *alias roots*: an argument
    #: ``cluster.datanodes[0]`` is rooted in parameter ``cluster``, so a
    #: callee mutating it mutates the caller's parameter.  Call results
    #: insulate (a returned copy is the callee's business).
    arg_roots: list[int | None] = field(default_factory=list)
    kw_roots: dict[str, int | None] = field(default_factory=dict)
    nargs: int = 0


@dataclass
class ResolvedCall:
    """Outcome of resolving a :class:`CallRef` against a project."""

    targets: list[FunctionDecl] = field(default_factory=list)
    external: str | None = None
    #: 1 when positional arg *j* binds target parameter *j + 1* (bound
    #: receiver or constructor call).
    shift: int = 0
    #: the constructed class, for ``Cls(...)`` calls (dataclasses have no
    #: explicit ``__init__`` in the AST, but field bindings still matter).
    cls: "ClassDecl | None" = None


@dataclass
class Project:
    """All analyzed modules plus the global resolution tables."""

    modules: dict[str, ModuleDecl] = field(default_factory=dict)
    #: dotted function key → declaration.
    functions: dict[str, FunctionDecl] = field(default_factory=dict)
    #: bare class name → declarations (several modules may reuse a name).
    classes_by_name: dict[str, list[ClassDecl]] = field(default_factory=dict)
    #: dotted class key → declaration.
    classes: dict[str, ClassDecl] = field(default_factory=dict)

    def add_module(self, decl: ModuleDecl) -> None:
        self.modules[decl.module] = decl
        for fn in decl.functions.values():
            self.functions[fn.key] = fn
        for cls in decl.classes.values():
            self.classes[cls.key] = cls
            self.classes_by_name.setdefault(cls.name, []).append(cls)

    # -- class/method lookup -------------------------------------------------

    def find_class(self, decl: ModuleDecl, name: str) -> ClassDecl | None:
        """Resolve a class referenced by (possibly aliased) name in a module."""
        if name in decl.classes:
            return decl.classes[name]
        target = decl.resolve_local(name)
        if target is not None:
            return self.class_for_target(target)
        return None

    def method_of(self, cls: ClassDecl, name: str) -> FunctionDecl | None:
        """Look up a method, walking base classes by bare name."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            cur = stack.pop()
            if cur.key in seen:
                continue
            seen.add(cur.key)
            local = cur.methods.get(name)
            if local is not None:
                fn = self.functions.get(f"{cur.module}.{local}")
                if fn is not None:
                    return fn
            for base in cur.bases:
                stack.extend(self.classes_by_name.get(base, []))
        return None

    def methods_named(self, name: str) -> list[FunctionDecl]:
        """Dynamic-dispatch fallback: every known method with this name."""
        out: list[FunctionDecl] = []
        for classes in self.classes_by_name.values():
            for cls in classes:
                local = cls.methods.get(name)
                if local is not None:
                    fn = self.functions.get(f"{cls.module}.{local}")
                    if fn is not None:
                        out.append(fn)
        return out

    # -- call resolution -----------------------------------------------------

    def resolve_ref(self, ref: CallRef) -> ResolvedCall:
        """Resolve a symbolic :class:`CallRef` against the project tables.

        Returns the reachable project functions plus the external dotted
        name (for taint-source matching) when the call leaves the project.
        ``shift`` is 1 when the resolved targets are methods called with a
        bound receiver (so positional arg *j* binds parameter *j + 1*).
        """
        if ref.kind == "dotted":
            return self._resolve_dotted_ref(ref.target, retry_alias=True)

        # method call with a bound receiver
        targets: list[FunctionDecl] = []
        if ref.recv_type is not None:
            decl = self.modules.get(ref.module)
            cls = self.find_class(decl, ref.recv_type) if decl else None
            if cls is None:
                for cand in self.classes_by_name.get(ref.recv_type, []):
                    cls = cand
                    break
            if cls is not None:
                fn = self.method_of(cls, ref.target)
                if fn is not None:
                    targets = [fn]
        if not targets and ref.recv_type is None:
            # dynamic dispatch fallback: every known method with this name
            targets = self.methods_named(ref.target)
        return ResolvedCall(targets=targets, shift=1)

    def _resolve_dotted_ref(self, target: str, *, retry_alias: bool) -> ResolvedCall:
        cls = self.class_for_target(target)
        if cls is not None:
            init = self.method_of(cls, "__init__")
            return ResolvedCall(
                targets=[init] if init is not None else [], shift=1, cls=cls
            )
        fns = self._resolve_dotted(target)
        if fns:
            return ResolvedCall(targets=fns)
        if not retry_alias:
            return ResolvedCall(external=target)
        # alias chains: `wall_clock = time.perf_counter` in another module
        external = self.resolve_external_alias(target)
        if external != target:
            return self._resolve_dotted_ref(external, retry_alias=False)
        return ResolvedCall(external=external)

    def class_for_target(self, target: str) -> ClassDecl | None:
        """Resolve a dotted name to a class, tolerating package re-exports."""
        cls = self.classes.get(target)
        if cls is not None:
            return cls
        bare = target.rsplit(".", 1)[-1]
        cands = self.classes_by_name.get(bare, [])
        for cand in cands:
            if cand.key == target:
                return cand
        # `from repro.dfs import Cluster` when the class lives in a submodule
        if target.startswith("repro.") and len(cands) == 1:
            return cands[0]
        return None

    def _resolve_dotted(self, target: str) -> list[FunctionDecl]:
        """A dotted name as a project function or ``Cls.method``."""
        fn = self.functions.get(target)
        if fn is not None:
            return [fn]
        if "." in target:
            # Cls.method spelled through the class (unbound call, no shift)
            head, attr = target.rsplit(".", 1)
            cls = self.class_for_target(head)
            if cls is not None:
                fn = self.method_of(cls, attr)
                return [fn] if fn is not None else []
            # package re-export: `from repro.dfs import make_cluster`
            if target.startswith("repro."):
                prefix = head + "."
                cands = [
                    f
                    for key, f in self.functions.items()
                    if f.local_qualname == attr and key.startswith(prefix)
                ]
                if len(cands) == 1:
                    return cands
        return []

    def resolve_external_alias(self, target: str) -> str:
        """Follow cross-module assign-aliases to the external dotted name."""
        seen: set[str] = set()
        while target not in seen:
            seen.add(target)
            mod_name, _, bound = target.rpartition(".")
            mod = self.modules.get(mod_name)
            if mod is not None and bound in mod.assign_aliases:
                target = mod.assign_aliases[bound]
                continue
            break
        return target


def build_project(
    sources: list[tuple[str, str, str | None]],
) -> Project:
    """Build a project from ``(path, source, module-or-None)`` triples."""
    project = Project()
    for path, source, module in sources:
        project.add_module(parse_module(source, path=path, module=module))
    return project


def build_call_ref(
    decl: ModuleDecl,
    call: ast.Call,
    *,
    params: dict[str, int],
    local_types: dict[str, str] | None = None,
    current_class: str | None = None,
) -> CallRef | None:
    """Reduce a call expression to its symbolic :class:`CallRef`.

    ``params`` maps the enclosing function's parameter names to indices;
    ``local_types`` maps local variables to inferred class names.  Both
    shadow module-level bindings, matching Python scoping.
    """
    local_types = local_types or {}

    def param_of(node: ast.expr) -> int | None:
        if isinstance(node, ast.Name):
            return params.get(node.id)
        return None

    def alias_root_of(node: ast.expr) -> int | None:
        # attribute/subscript chains reach into the root's object graph;
        # call results do NOT (a returned copy insulates the receiver)
        while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
            node = node.value
        if isinstance(node, ast.Name):
            return params.get(node.id)
        return None

    positional = [a for a in call.args if not isinstance(a, ast.Starred)]
    arg_params = [param_of(a) for a in positional]
    kw_params = {
        kw.arg: param_of(kw.value) for kw in call.keywords if kw.arg is not None
    }
    base = dict(
        module=decl.module,
        line=call.lineno,
        col=call.col_offset,
        arg_params=arg_params,
        kw_params=kw_params,
        arg_roots=[alias_root_of(a) for a in positional],
        kw_roots={
            kw.arg: alias_root_of(kw.value)
            for kw in call.keywords
            if kw.arg is not None
        },
        nargs=len(call.args) + len(call.keywords),
    )

    func = call.func
    if isinstance(func, ast.Name):
        name = func.id
        if name in decl.functions or name in decl.classes:
            return CallRef(kind="dotted", target=f"{decl.module}.{name}", **base)
        return CallRef(kind="dotted", target=decl.expand(name), **base)

    if not isinstance(func, ast.Attribute):
        return None

    full = dotted(func)
    if full is None:
        # complex receiver (subscript chain): self.datanodes[i].m(...)
        return CallRef(
            kind="method",
            target=func.attr,
            recv_param=alias_root_of(func.value),
            **base,
        )

    head, _, rest = full.partition(".")
    if head == "self" and current_class is not None:
        recv_type: str | None = current_class
        if "." in rest:
            # self.attr.method(): type the receiver via the field annotation
            recv_type = None
            cls = decl.classes.get(current_class)
            ann = cls.field_annotations.get(rest.partition(".")[0]) if cls else None
            for root in sorted(annotation_roots(ann)):
                if root and root[0].isupper():
                    recv_type = root
                    break
        return CallRef(
            kind="method",
            target=func.attr,
            recv_type=recv_type,
            recv_param=params.get("self"),
            **base,
        )

    if head in params or head in local_types:
        return CallRef(
            kind="method",
            target=func.attr,
            recv_type=local_types.get(head),
            recv_param=params.get(head),
            **base,
        )

    if decl.resolve_local(head) is not None:
        return CallRef(kind="dotted", target=decl.expand(full), **base)
    if head in decl.classes:
        return CallRef(kind="dotted", target=f"{decl.module}.{full}", **base)

    # untyped local receiver → dynamic dispatch fallback at resolution
    return CallRef(kind="method", target=func.attr, **base)
