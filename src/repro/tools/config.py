"""``[tool.opass-lint]`` configuration.

The defaults below describe *this* repository: the package layering DAG,
the wall-clock allow-list, the names of float-typed simulation
quantities, the per-rule package scopes, the pure and bit-identical
kernel modules and the hot-path cost contracts.  A ``pyproject.toml``
can override the keys in :data:`_KEYS` under ``[tool.opass-lint]``
(kebab-case, as usual for tool tables); every other key is rejected so
typos fail loudly.  The remaining fields keep their code defaults.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path

#: The layering DAG as a rank table: a module in package P may import
#: package Q only when ``layers[Q] < layers[P]`` (or Q is P itself).
#: ``core``/``dfs`` sit at the bottom, ``simulate`` above them, and the
#: experiment/application/presentation layers on top.  Top-level modules
#: (``repro.cli``, ``repro.report``) and ``repro.tools`` may import
#: anything; nothing may import ``repro.tools``.
DEFAULT_LAYERS: dict[str, int] = {
    "dfs": 0,
    "core": 1,
    "simulate": 2,
    "metrics": 3,
    "workloads": 3,
    "analysis": 3,
    "viz": 3,
    "parallel": 4,
    "apps": 5,
    "experiments": 6,
    "report": 7,
    "cli": 8,
    "tools": 8,
}

#: Attribute/variable names treated as float-typed simulation quantities
#: by OPS004 (clock readings, rates, byte residues, phase walls).
DEFAULT_FLOAT_ATTRS: tuple[str, ...] = (
    "now",
    "remaining",
    "rate",
    "rate_cap",
    "makespan",
    "issue_time",
    "end_time",
    "start_time",
    "finish_time",
    "latency",
    "duration",
    "elapsed",
    "settled_at",
)

#: Per-rule package scopes (None → the whole tree).
DEFAULT_SCOPES: dict[str, tuple[str, ...] | None] = {
    "OPS001": None,
    "OPS002": ("simulate", "core", "dfs"),
    "OPS003": ("simulate", "core", "dfs"),
    "OPS004": ("simulate", "core", "dfs"),
    "OPS005": ("simulate", "core"),
    "OPS006": None,
    # interprocedural rules (repro.tools.interproc)
    "OPS101": None,
    "OPS102": ("simulate", "dfs"),
    "OPS103": None,
    # float-identity rule (repro.tools.concurrency)
    "OPS203": None,
}

#: Modules whose functions are matching kernels: pure readers of the
#: block layout.  OPS103 forbids them from (transitively) mutating any
#: protected-type argument or writing module globals.
DEFAULT_PURE_MODULES: tuple[str, ...] = (
    "repro.core.opass",
    "repro.core.bipartite",
    "repro.core.csr",
    "repro.core.flownetwork",
    "repro.core.mincostflow",
    "repro.core.multi_data",
    "repro.core.single_data",
    "repro.simulate.components",
    "repro.simulate.flowtable",
    "repro.simulate.vectorized",
)

#: Class names whose instances carry DFS state; mutating one from a pure
#: module is an OPS103 violation.
DEFAULT_PROTECTED_TYPES: tuple[str, ...] = (
    "Cluster",
    "NameNode",
    "DataNode",
    "DistributedFileSystem",
)

#: Packages whose code makes scheduler/placement decisions — entropy
#: reaching a call result here is an OPS101 violation.
DEFAULT_DECISION_PACKAGES: tuple[str, ...] = ("core", "dfs")

#: Modules where wall-clock reads are legitimate (perf instrumentation).
#: Single source of truth for OPS002: no ``[tool.opass-lint]`` key sets it.
DEFAULT_WALLCLOCK_ALLOW: tuple[str, ...] = (
    "repro.core.perf",
    "repro.simulate.perf",
)

#: Module prefixes whose kernels must stay bit-for-bit identical to the
#: reference solvers.  OPS203 enforces the float64/int64 dtype lattice and
#: the reassociation ban there (same prefix machinery as ``pure_modules``).
DEFAULT_KERNEL_MODULES: tuple[str, ...] = (
    "repro.simulate.vectorized",
    "repro.core.flownetwork",
)

#: Declared cost budgets (OPS301/OPS302), as O-notation strings mapped to
#: the analyzer's cost lattice: 0 ≡ O(1), 1 ≡ O(deg) (one flow's replica
#: path, one component), 2 ≡ O(n) (an axis that grows with the problem),
#: 3 ≡ O(n log n), 4 ≡ O(n²).  Nested iteration sums levels, so a linear
#: build under a linear loop lands at 4.
COST_BUDGET_LEVELS: dict[str, int] = {
    "O(1)": 0,
    "O(deg)": 1,
    "O(|path|)": 1,
    "O(n)": 2,
    "O(E)": 2,
    "O(n log n)": 3,
    "O(n^2)": 4,
}

#: Iteration axes that are O(deg)-small by contract: a flow's replica
#: path (≤ replication factor), one component's membership, one lowered
#: component's arrays.  ``for f in group`` is charged to the component,
#: not the world — exactly the amortization PR 4 bought.
DEFAULT_SMALL_AXES: tuple[str, ...] = (
    "path",
    "group",
    "members",
    "flows",
    "caps",
    "handles",
)

#: Cost contracts on the hot-path functions PRs 4–6 made incremental
#: (OPS301–OPS303 fire only inside contracted functions; everything else
#: merely contributes summarized cost).  Keys are fully-qualified
#: function keys, values are budgets from :data:`COST_BUDGET_LEVELS`.
DEFAULT_COST_CONTRACTS: dict[str, str] = {
    # per-event allocator maintenance is O(|path| + smaller merged comp)
    "repro.simulate.components.ComponentAllocator.add": "O(deg)",
    "repro.simulate.components.ComponentAllocator.remove": "O(deg)",
    "repro.simulate.components.ComponentAllocator.concurrency": "O(1)",
    # dirty-set re-solve: linear in the dirty components plus their sort
    "repro.simulate.components.ComponentAllocator.solve": "O(n log n)",
    "repro.simulate.components.ComponentAllocator._dirty_groups": "O(n)",
    # a numpy-tier component's lowered form follows its members one
    # flow (or one new row) at a time; lowering from scratch, at the
    # first numpy-tier solve or to drop inert rows, is linear in it
    "repro.simulate.components._Lowered.enter": "O(deg)",
    "repro.simulate.components._Lowered.leave": "O(deg)",
    "repro.simulate.components._Lowered.new_row": "O(deg)",
    "repro.simulate.components._lower": "O(n)",
    # the split check walks one component's form, never the world
    "repro.simulate.components._still_whole": "O(n)",
    # one numpy-tier component's filling on its kept form (the
    # distinct-cap sort, the iterations)
    "repro.simulate.vectorized.solve_large": "O(n log n)",
    # CSR row lookups are slice reads, never rebuilds
    "repro.core.csr.LocalityCSR.task_row": "O(deg)",
    "repro.core.csr.LocalityCSR.proc_row": "O(deg)",
    # flow-network edge bookkeeping on the augmenting hot path
    "repro.core.flownetwork.FlowNetwork.add_edge": "O(1)",
    "repro.core.flownetwork.FlowNetwork.flow_on": "O(1)",
    # locality-graph per-task adjacency reads
    "repro.core.bipartite.LocalityGraph.ranks_of_task": "O(deg)",
    "repro.core.bipartite.LocalityGraph.edge_weight": "O(deg)",
    # FlowTable per-event slot operations stay O(deg); only the
    # solve-boundary kernels may touch the whole slot range
    "repro.simulate.flowtable.FlowTable.acquire": "O(deg)",
    "repro.simulate.flowtable.FlowTable.release": "O(deg)",
    "repro.simulate.flowtable.FlowTable.views": "O(1)",
    "repro.simulate.flowtable.FlowTable.settle": "O(n)",
    "repro.simulate.flowtable.FlowTable.sync_remaining": "O(n)",
}

#: Directories linted with the relaxed profile (OPS000/OPS001/OPS003,
#: literal seeds allowed): benches and tests pin seeds on purpose, but
#: must still stay free of *unseeded* RNG and unordered-set iteration.
DEFAULT_EXTRA_PATHS: tuple[str, ...] = ("benchmarks", "tests")

#: Rules active under the relaxed profile.
DEFAULT_EXTRA_RULES: tuple[str, ...] = ("OPS000", "OPS001", "OPS003")


@dataclass(frozen=True)
class LintConfig:
    """Resolved analyzer configuration."""

    #: package → rank; imports must point strictly down-rank.
    layers: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_LAYERS))
    #: modules where wall-clock reads are legitimate (see
    #: :data:`DEFAULT_WALLCLOCK_ALLOW`, the single source of truth).
    wallclock_allow: tuple[str, ...] = DEFAULT_WALLCLOCK_ALLOW
    #: receiver attribute names whose ``.remove`` is O(small) by contract
    #: (the engine's allocator handle, ``self._alloc``).
    remove_allow: tuple[str, ...] = ("_alloc",)
    #: function names that ARE the tolerance helpers (OPS004 is off inside).
    float_eq_helpers: tuple[str, ...] = ("isclose", "close_enough", "approx_equal")
    #: names of float-typed sim quantities for OPS004.
    float_attrs: tuple[str, ...] = DEFAULT_FLOAT_ATTRS
    #: per-rule package scope; a rule fires only inside its scope.
    scopes: dict[str, tuple[str, ...] | None] = field(
        default_factory=lambda: dict(DEFAULT_SCOPES)
    )
    #: path substrings excluded from linting entirely.
    exclude: tuple[str, ...] = ()
    #: module prefixes holding pure matching kernels (OPS103).
    pure_modules: tuple[str, ...] = DEFAULT_PURE_MODULES
    #: DFS state types pure modules must not mutate (OPS103).
    protected_types: tuple[str, ...] = DEFAULT_PROTECTED_TYPES
    #: packages whose call results must stay entropy-free (OPS101).
    decision_packages: tuple[str, ...] = DEFAULT_DECISION_PACKAGES
    #: module prefixes holding bit-identical kernels (OPS203).
    kernel_modules: tuple[str, ...] = DEFAULT_KERNEL_MODULES
    #: function key → declared budget (OPS301–OPS303 fire only here).
    cost_contracts: dict[str, str] = field(
        default_factory=lambda: dict(DEFAULT_COST_CONTRACTS)
    )
    #: iteration axes charged at O(deg) by the cost lattice.
    small_axes: tuple[str, ...] = DEFAULT_SMALL_AXES
    #: directories linted with the relaxed profile.
    extra_paths: tuple[str, ...] = DEFAULT_EXTRA_PATHS
    #: rules active under the relaxed profile.
    extra_rules: tuple[str, ...] = DEFAULT_EXTRA_RULES

    def in_scope(self, rule: str, package: str | None) -> bool:
        scope = self.scopes.get(rule, None)
        if scope is None:
            return True
        return package is not None and package in scope

    def own_contracts(self, module: str) -> dict[str, str]:
        """The cost contracts whose key names a function of ``module``
        (see :func:`contract_module`).  Keys naming no existing function
        are included: they are stale contracts.
        """
        return {
            key: budget
            for key, budget in self.cost_contracts.items()
            if contract_module(key) == module
        }


def contract_module(key: str) -> str:
    """The module a cost-contract key names.

    A key is ``<module>.<function>`` or ``<module>.<Class>.<method>``.  A
    capitalised segment, private or not (``_Lowered``), marks the class,
    which tells a method of a package's own class from a function of its
    submodule (``repro.simulate.vectorized.solve_small`` belongs to
    ``vectorized``, not to the ``repro.simulate`` package).
    """
    parts = key.split(".")
    if len(parts) >= 3 and parts[-2].lstrip("_")[:1].isupper():
        return ".".join(parts[:-2])
    return ".".join(parts[:-1])


class ConfigError(ValueError):
    """Raised for unreadable or malformed ``[tool.opass-lint]`` tables."""


#: The keys ``pyproject.toml`` may set, mapped to their fields.
_KEYS = {
    "layers": "layers",
    "remove-allow": "remove_allow",
    "float-eq-helpers": "float_eq_helpers",
    "exclude": "exclude",
    "extra-paths": "extra_paths",
    "extra-rules": "extra_rules",
}


def config_from_table(table: dict[str, object]) -> LintConfig:
    """Build a :class:`LintConfig` from a ``[tool.opass-lint]`` mapping."""
    kwargs: dict[str, object] = {}
    for key, value in table.items():
        attr = _KEYS.get(key)
        if attr is None:
            raise ConfigError(
                f"unknown [tool.opass-lint] key {key!r} (known: {sorted(_KEYS)})"
            )
        if attr == "layers":
            if not isinstance(value, dict) or not all(
                isinstance(k, str) and isinstance(v, int) for k, v in value.items()
            ):
                raise ConfigError("layers must map package names to integer ranks")
            kwargs["layers"] = dict(value)
        elif not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ConfigError(f"{key} must be a list of strings")
        else:
            kwargs[attr] = tuple(value)
    return LintConfig(**kwargs)  # type: ignore[arg-type]


def load_config(pyproject: str | Path) -> LintConfig:
    """Load ``[tool.opass-lint]`` from a ``pyproject.toml`` file.

    Missing file or missing table → the built-in defaults.
    """
    path = Path(pyproject)
    if not path.is_file():
        return LintConfig()
    try:
        data = tomllib.loads(path.read_text(encoding="utf-8"))
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    table = data.get("tool", {}).get("opass-lint")
    if table is None:
        return LintConfig()
    if not isinstance(table, dict):
        raise ConfigError("[tool.opass-lint] must be a table")
    return config_from_table(table)


def config_near(start: str | Path) -> LintConfig:
    """Config of the nearest ``pyproject.toml`` at or above ``start``.

    No ``pyproject.toml`` up the tree → the built-in defaults.
    """
    here = Path(start).resolve()
    if here.is_file():
        here = here.parent
    for candidate in (here, *here.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return load_config(pyproject)
    return LintConfig()
