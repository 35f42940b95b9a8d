"""Float-identity rule OPS203 (`opass-verify`).

The numpy water-filling kernels promise bit-for-bit identity with the
reference solvers.  Inside registered kernel modules
(``kernel_modules``, same prefix machinery as ``pure_modules``) this
pass machine-checks the float semantics OPS101–OPS103 are blind to: a
dtype lattice forbids implicit float32/float16/object promotion,
``int / int`` true division is flagged as drift, and reassociating
reductions (``np.sum``, ``np.dot``, ``.mean()`` …) are banned unless the
line carries an explicit waiver::

    n = int(lens.sum())  # opass: reassoc-ok -- int64 sum, addition is exact

A waiver without a reason is itself reported as OPS000.  Every
violation is attributed to a concrete line in the module under check,
so the per-line suppression pragmas work unchanged.
"""

from __future__ import annotations

import ast

from .astutils import dotted
from .callgraph import FunctionDecl, ModuleDecl
from .config import LintConfig
from .interproc import _package_of
from .model import Violation, marker_lines

#: rule id → one-line description (merged into ``--list-rules``).
CONCURRENCY_RULES: dict[str, str] = {
    "OPS203": "float-identity drift in a bit-identical kernel module",
}

#: numpy dtype tails that break the float64/int64 identity contract.
_BAD_DTYPES = frozenset(
    {
        "float32",
        "float16",
        "half",
        "single",
        "longdouble",
        "float128",
        "object",
        "object_",
        "str_",
    }
)

#: numpy constructors with a positional dtype parameter (index).
_DTYPE_POSITIONS: dict[str, int] = {
    "numpy.array": 1,
    "numpy.asarray": 1,
    "numpy.ascontiguousarray": 1,
    "numpy.zeros": 1,
    "numpy.ones": 1,
    "numpy.empty": 1,
    "numpy.full": 2,
    "numpy.frombuffer": 1,
    "numpy.fromiter": 1,
}

#: Reductions whose float result depends on accumulation order.
_REDUCTION_CALLS = frozenset(
    {
        "numpy.sum",
        "numpy.nansum",
        "numpy.dot",
        "numpy.vdot",
        "numpy.inner",
        "numpy.matmul",
        "numpy.einsum",
        "numpy.prod",
        "numpy.mean",
        "numpy.std",
        "numpy.var",
        "numpy.add.reduce",
        "numpy.multiply.reduce",
        "math.fsum",
    }
)
_REDUCTION_METHODS = frozenset({"sum", "dot", "prod", "mean", "std", "var", "trace"})


def _int_names(fn: FunctionDecl):
    """(int-typed names, is_int predicate) for one function (tiny lattice)."""
    ints: set[str] = set()
    for name, ann in zip(fn.params, fn.param_annotation_nodes):
        if isinstance(ann, ast.Name) and ann.id == "int":
            ints.add(name)

    def is_int(e: ast.expr) -> bool:
        if isinstance(e, ast.Constant):
            return type(e.value) is int
        if isinstance(e, ast.Name):
            return e.id in ints
        if isinstance(e, ast.Call) and isinstance(e.func, ast.Name):
            return e.func.id in {"len", "int", "ord"}
        if isinstance(e, ast.BinOp) and isinstance(
            e.op, (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod)
        ):
            return is_int(e.left) and is_int(e.right)
        if isinstance(e, ast.UnaryOp) and isinstance(e.op, (ast.USub, ast.UAdd)):
            return is_int(e.operand)
        return False

    for _ in range(3):  # propagate through short assignment chains
        changed = False
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id not in ints
                and is_int(node.value)
            ):
                ints.add(node.targets[0].id)
                changed = True
        if not changed:
            break
    return ints, is_int


def _check_float_identity(
    decl: ModuleDecl,
    reassoc_lines: set[int],
    violation,
) -> None:
    """OPS203 over one registered kernel module."""

    def expanded(func: ast.expr) -> str | None:
        if not isinstance(func, (ast.Name, ast.Attribute)):
            return None
        name = dotted(func)
        return decl.expand(name) if name is not None else None

    def dtype_label(e: ast.expr) -> str | None:
        """The forbidden dtype an expression names, if any."""
        if isinstance(e, ast.Constant) and isinstance(e.value, str):
            return e.value if e.value in _BAD_DTYPES else None
        if isinstance(e, ast.Name) and e.id == "object":
            return "object"
        target = expanded(e)
        if target is not None:
            tail = target.rsplit(".", 1)[-1]
            if target.startswith("numpy.") and tail in _BAD_DTYPES:
                return tail
        return None

    # dtype lattice + reductions, module-wide
    for node in ast.walk(decl.tree):
        if not isinstance(node, ast.Call):
            continue
        target = expanded(node.func)
        # direct scalar constructors: np.float32(x)
        if target is not None and target.startswith("numpy."):
            tail = target.rsplit(".", 1)[-1]
            if tail in _BAD_DTYPES:
                violation(
                    "OPS203",
                    node,
                    f"numpy.{tail} breaks the float64/int64 identity "
                    "contract (implicit precision/object promotion)",
                )
                continue
        # dtype= arguments
        dtype_arg: ast.expr | None = None
        if target in _DTYPE_POSITIONS and len(node.args) > _DTYPE_POSITIONS[target]:
            dtype_arg = node.args[_DTYPE_POSITIONS[target]]
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and node.args
        ):
            dtype_arg = node.args[0]
        for kw in node.keywords:
            if kw.arg == "dtype":
                dtype_arg = kw.value
        if dtype_arg is not None:
            label = dtype_label(dtype_arg)
            if label is not None:
                violation(
                    "OPS203",
                    node,
                    f"dtype {label!r} breaks the float64/int64 identity "
                    "contract (implicit precision/object promotion)",
                )
        # reassociating reductions
        is_reduction = target in _REDUCTION_CALLS
        name = None
        if is_reduction:
            name = target
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _REDUCTION_METHODS
            and (target is None or not target.startswith(("numpy.", "math.")))
        ):
            is_reduction = True
            name = f".{node.func.attr}()"
        if is_reduction and node.lineno not in reassoc_lines:
            violation(
                "OPS203",
                node,
                f"reassociating reduction {name} without a declared stable "
                "order; annotate `# opass: reassoc-ok -- <why>` if the "
                "accumulation order is provably fixed or exact",
            )

    # int / int true division per function
    for fn in decl.functions.values():
        ints, is_int = _int_names(fn)
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Div)
                and is_int(node.left)
                and is_int(node.right)
            ):
                violation(
                    "OPS203",
                    node,
                    "int/int true division produces a float the reference "
                    "solver never sees; use // or make a side explicitly "
                    "float",
                )


def check_module_concurrency(
    decl: ModuleDecl,
    config: LintConfig | None = None,
    *,
    source: str | None = None,
) -> list[Violation]:
    """Run OPS203 over one module.

    ``source`` (when available) is scanned for ``reassoc-ok`` waivers;
    without it OPS203's reduction ban has no waiver mechanism, so pass it
    whenever the module text is at hand.
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

    # grammar errors in pragmas are OPS000s owned by apply_suppressions
    # (one report per file, shared with every other pass); a bare marker
    # simply waives nothing here.
    reassoc_lines: set[int] = set()
    if source is not None:
        reassoc_lines = marker_lines(source, "reassoc-ok")

    kernel = any(
        decl.module == k or decl.module.startswith(k + ".")
        for k in config.kernel_modules
    )
    if kernel and config.in_scope("OPS203", package):
        _check_float_identity(decl, reassoc_lines, violation)

    return out
