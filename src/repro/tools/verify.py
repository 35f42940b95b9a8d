"""``opass-verify``: interprocedural analysis front end.

``python -m repro.tools.verify [paths...]`` runs the OPS101–OPS103
rules (determinism taint, unit checking, scheduler purity), the OPS203
float-identity rule (:mod:`repro.tools.concurrency`) and the
OPS301–OPS303 cost-contract rules (:mod:`repro.tools.costmodel`) over a
whole tree at once, because unlike :mod:`repro.tools.checks` these rules
need *project-wide* call-graph summaries: a violation may only be
visible two or three call levels away from the code that commits it.

The run is incremental.  Per-module summaries and per-module check
results are cached in ``.opass-cache/``.  Summary bundles are keyed by
content hash alone: summaries are config-independent (axis names are
recorded raw and classified at check time).  Check results additionally
carry :meth:`LintConfig.check_fingerprint`, the per-module
:meth:`LintConfig.contracts_signature` and the hash of the module's
transitive import closure (see :mod:`repro.tools.cache`).  Editing a
cost-contract bound therefore re-checks exactly the module declaring
that function; editing a lint-only knob re-checks nothing.  A warm run
over an unchanged tree loads every summary and every check result from
the cache and never parses a single module — the fast path goes
straight from content hashes to the final report.

Both paths also report, uncached, each cost contract (OPS301) and
``pure_modules`` entry (OPS103) naming a module that no analyzed file
defines while its parent package is analyzed: deleting or renaming a
contracted module fails the run instead of dropping its contracts.

Exit codes match ``opass-lint``: 0 clean, 1 violations, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .api import (
    ALL_RULES,
    LintReport,
    _iter_python_files,
    apply_suppressions,
    emit_report,
)
from .cache import AnalysisCache, CacheStats, closure_signature, module_key
from .callgraph import ModuleDecl, Project, parse_module
from .concurrency import check_module_concurrency
from .config import (
    ConfigError,
    LintConfig,
    config_near,
    contract_module,
    load_config,
)
from .costmodel import check_module_cost, resolve_costs
from .interproc import check_module_interproc
from .model import Violation, marker_lines
from .summaries import LocalSummary, resolve_summaries, summarize_module

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_ERROR = 2

TOOL = "opass-verify"


# ---- core pipeline ---------------------------------------------------------


def _closure(
    module: str, deps_of: dict[str, list[str] | set[str]]
) -> set[str]:
    """Transitive deps of ``module`` among the analyzed set, incl. itself.

    Runs on a plain deps mapping so the warm path can compute closure
    signatures without parsing anything.  ``from . import fn`` records
    the dep ``<package>.fn``, which names a function, not a module, so
    an unknown dep is retried with its last component stripped.
    """
    out: set[str] = set()
    stack = [module]
    while stack:
        cur = stack.pop()
        if cur in out:
            continue
        if cur not in deps_of:
            parent = cur.rpartition(".")[0]
            if parent and parent not in out and parent in deps_of:
                stack.append(parent)
            continue
        out.add(cur)
        stack.extend(deps_of[cur])
    return out


def _decode_violation(data: dict, path: str) -> Violation:
    """Rebuild a cached raw violation, re-pinned to the current path."""
    return Violation(
        file=path,
        line=int(data.get("line", 1)),
        col=int(data.get("col", 1)),
        rule=str(data.get("rule", "OPS000")),
        message=str(data.get("message", "")),
    )


def _closure_sigs(
    entries: list[tuple[str, str, str]],
    mod_of: dict[str, str],
    deps_of: dict[str, list[str] | set[str]],
) -> dict[str, str]:
    """Per-file closure signature from module names, deps and keys."""
    key_of_mod = {mod_of[path]: key for path, _, key in entries}
    sigs: dict[str, str] = {}
    for path, _, _ in entries:
        module = mod_of[path]
        members = [
            (m, key_of_mod[m])
            for m in _closure(module, deps_of)
            if m in key_of_mod
        ]
        sigs[path] = closure_signature(members)
    return sigs


def _check_sig(closure_sig: str, config: LintConfig, module: str) -> str:
    """Composite check-cache signature for one module.

    Closure signature (cross-module effects) + the digest of the
    check-relevant config fields + the digest of this module's own cost
    contracts.  Lint-only config edits change none of the three, so a
    warm run after one keeps ``check_misses=0``; editing a contract
    bound misses exactly the declaring module.
    """
    return (
        f"{closure_sig}-{config.check_fingerprint()}-"
        f"{config.contracts_signature(module)}"
    )


def verify_paths(
    paths: list[str | Path],
    *,
    config: LintConfig | None = None,
    cache: AnalysisCache | None = None,
) -> LintReport:
    """Run OPS101–OPS103 over files/directories as one project."""
    if config is None:
        config = config_near(paths[0] if paths else Path.cwd())
    if cache is None:
        cache = AnalysisCache(None)

    # summaries are config-independent: axis names, taints and call
    # facts are recorded raw and classified at check time
    entries: list[tuple[str, str, str]] = []  # (path, source, key)
    for raw in paths:
        p = Path(raw)
        from_sweep = p.is_dir()
        for file in _iter_python_files([p]):
            # exclude patterns prune swept trees only; a file named
            # explicitly (fixture snippets under tests/data/) is analyzed
            if from_sweep and any(
                pattern in str(file) for pattern in config.exclude
            ):
                continue
            source = file.read_text(encoding="utf-8")
            entries.append((str(file), source, module_key(source)))

    bundles = {path: cache.load_bundle(key) for path, _, key in entries}

    # ---- warm fast path: everything from the cache, no parsing ------------
    checks_loaded: dict[str, list[dict] | None] = {}
    if entries and all(bundles[path] is not None for path, _, _ in entries):
        mod_of = {path: bundles[path]["module"] for path, _, _ in entries}
        deps_of = {
            bundles[path]["module"]: bundles[path]["deps"]
            for path, _, _ in entries
        }
        sigs = _closure_sigs(entries, mod_of, deps_of)
        checks_loaded = {
            path: cache.load_checks(
                key, _check_sig(sigs[path], config, mod_of[path])
            )
            for path, _, key in entries
        }
        if all(checks_loaded[path] is not None for path, _, _ in entries):
            raw_by_path = {
                path: [_decode_violation(d, path) for d in checks_loaded[path]]
                for path, _, _ in entries
            }
            return _assemble(entries, raw_by_path, mod_of, config)

    # ---- full path: parse everything, reuse whatever the cache has --------
    decls: dict[str, ModuleDecl] = {}
    project = Project()
    for path, source, _ in entries:
        decl = parse_module(source, path=path)
        decls[path] = decl
        project.add_module(decl)

    local: dict[str, LocalSummary] = {}
    for path, source, key in entries:
        decl = decls[path]
        bundle = bundles[path]
        if bundle is not None and set(bundle["functions"]) == set(decl.functions):
            summaries = {
                name: LocalSummary.from_dict(data)
                for name, data in bundle["functions"].items()
            }
        else:
            summaries = summarize_module(
                decl, alloc_ok=marker_lines(source, "alloc-ok")
            )
            cache.store_bundle(key, decl.module, decl.deps, summaries)
        for name, summary in summaries.items():
            local[f"{decl.module}.{name}"] = summary

    project_summaries = resolve_summaries(project, local)
    costs = resolve_costs(project_summaries, config)

    mod_of = {path: decls[path].module for path, _, _ in entries}
    deps_of = {decls[path].module: decls[path].deps for path, _, _ in entries}
    sigs = _closure_sigs(entries, mod_of, deps_of)

    raw_by_path = {}
    for path, source, key in entries:
        decl = decls[path]
        sig = _check_sig(sigs[path], config, decl.module)
        if path in checks_loaded:  # already probed on the warm fast path
            cached = checks_loaded[path]
        else:
            cached = cache.load_checks(key, sig)
        if cached is not None:
            raw_by_path[path] = [_decode_violation(d, path) for d in cached]
            continue
        raw = check_module_interproc(decl, project_summaries, config)
        raw += check_module_concurrency(decl, config, source=source)
        raw += check_module_cost(decl, project_summaries, costs, config)
        cache.store_checks(key, sig, [v.as_dict() for v in raw])
        raw_by_path[path] = raw
    return _assemble(entries, raw_by_path, mod_of, config)


def _orphaned_entries(
    mod_of: dict[str, str], config: LintConfig
) -> dict[str, list[Violation]]:
    """Contracts and pure-module entries whose module is missing.

    Each is reported at line 1 of its parent package's ``__init__.py``,
    and only when that package is analyzed, so verifying one file never
    flags another package's entries.
    """
    path_of = {module: path for path, module in mod_of.items()}
    named = [
        (contract_module(key), "OPS301", f"stale cost contract {key!r} ({budget})")
        for key, budget in sorted(config.cost_contracts.items())
    ]
    named += [
        (module, "OPS103", f"stale pure-module entry {module!r}")
        for module in config.pure_modules
    ]
    out: dict[str, list[Violation]] = {}
    for module, rule, what in named:
        path = path_of.get(module.rpartition(".")[0])
        if path is not None and module not in path_of:
            message = f"{what} names {module}, which no analyzed file defines"
            out.setdefault(path, []).append(Violation(path, 1, 1, rule, message))
    return out


def _assemble(
    entries: list[tuple[str, str, str]],
    raw_by_path: dict[str, list[Violation]],
    mod_of: dict[str, str],
    config: LintConfig,
) -> LintReport:
    orphaned = _orphaned_entries(mod_of, config)
    report = LintReport(tool=TOOL)
    for path, source, _ in entries:
        raw = raw_by_path.get(path, []) + orphaned.get(path, [])
        report.extend(apply_suppressions(raw, source, path, tool=TOOL))
    report.sort()
    return report


def verify_source(
    source: str,
    *,
    path: str = "<string>",
    module: str | None = None,
    config: LintConfig | None = None,
) -> LintReport:
    """Verify one source string as a standalone single-module project."""
    config = config if config is not None else LintConfig()
    decl = parse_module(source, path=path, module=module)
    project = Project()
    project.add_module(decl)
    local = {
        f"{decl.module}.{name}": summary
        for name, summary in summarize_module(
            decl, alloc_ok=marker_lines(source, "alloc-ok")
        ).items()
    }
    summaries = resolve_summaries(project, local)
    costs = resolve_costs(summaries, config)
    raw = check_module_interproc(decl, summaries, config)
    raw += check_module_concurrency(decl, config, source=source)
    raw += check_module_cost(decl, summaries, costs, config)
    return apply_suppressions(raw, source, path, tool=TOOL)


# ---- CLI -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.verify",
        description=(
            "opass-verify: interprocedural determinism-taint, unit, "
            "scheduler-purity (OPS101-OPS103), float-identity (OPS203) "
            "and cost-contract (OPS301-OPS303) analysis"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to verify as one project (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "sarif"),
        default="human",
        help="report format (default: human)",
    )
    parser.add_argument(
        "--config",
        metavar="PYPROJECT",
        default=None,
        help="pyproject.toml with a [tool.opass-lint] table",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="also write the report to FILE (useful for CI artifacts)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=".opass-cache",
        help="incremental cache directory (default: .opass-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental cache for this run",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print cache hit/miss counters and wall time to stderr",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the combined rule table and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule_id, description in sorted(ALL_RULES.items()):
            print(f"{rule_id}  {description}")
        return EXIT_OK

    try:
        if args.config is not None:
            config = load_config(args.config)
        else:
            config = config_near(args.paths[0])
    except ConfigError as exc:
        print(f"{TOOL}: config error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    for path in args.paths:
        if not Path(path).exists():
            print(f"{TOOL}: no such path: {path}", file=sys.stderr)
            return EXIT_ERROR

    stats = CacheStats()
    cache = AnalysisCache(None if args.no_cache else args.cache_dir, stats)
    started = time.perf_counter()
    try:
        report = verify_paths(list(args.paths), config=config, cache=cache)
    except SyntaxError as exc:
        print(f"{TOOL}: cannot parse {exc.filename}: {exc}", file=sys.stderr)
        return EXIT_ERROR

    emit_report(report, args.format, args.output)
    if args.stats:
        elapsed = time.perf_counter() - started
        pairs = ", ".join(f"{k}={v}" for k, v in stats.as_dict().items())
        print(f"{TOOL}: {pairs}, wall={elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


if __name__ == "__main__":
    sys.exit(main())
