"""``opass-verify``: interprocedural analysis front end.

``python -m repro.tools.verify [paths...]`` runs the OPS101–OPS103
rules (determinism taint, unit checking, scheduler purity), the OPS203
float-identity rule (:mod:`repro.tools.concurrency`) and the
OPS301–OPS303 cost-contract rules (:mod:`repro.tools.costmodel`) over a
whole tree at once, because unlike :mod:`repro.tools.checks` these rules
need *project-wide* call-graph summaries: a violation may only be
visible two or three call levels away from the code that commits it.

Every run parses, summarizes and checks the whole tree it is given;
nothing is cached between runs.  Summaries are resolved to a fixed
point over the project, so a module's findings may depend on any other
analyzed module (dynamic-dispatch fallback consults every class in the
project), and only a fresh pass is guaranteed to see such an edit.

A tree run also reports each cost contract (OPS301) and
``pure_modules`` entry (OPS103) naming a module that no analyzed file
defines while its parent package is analyzed: deleting or renaming a
contracted module fails the run instead of dropping its contracts.

Exit codes match ``opass-lint``: 0 clean, 1 violations, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .api import (
    ALL_RULES,
    LintReport,
    _iter_python_files,
    apply_suppressions,
    emit_report,
)
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


def _analyze(
    sources: list[tuple[str, str, str | None]],
    config: LintConfig,
    *,
    whole_tree: bool,
) -> LintReport:
    """Parse, summarize, resolve and check ``(path, source, module)`` triples.

    The one pipeline behind :func:`verify_paths` and
    :func:`verify_source`: every module is parsed and summarized afresh,
    the summaries are resolved project-wide, then each module is checked
    and its suppressions applied.  ``whole_tree`` adds the
    missing-module entries of :func:`_orphaned_entries`, which only a
    swept tree can judge.
    """
    decls: list[tuple[str, str, ModuleDecl]] = []
    project = Project()
    for path, source, module in sources:
        decl = parse_module(source, path=path, module=module)
        decls.append((path, source, decl))
        project.add_module(decl)

    local: dict[str, LocalSummary] = {}
    for _, source, decl in decls:
        summaries = summarize_module(decl, alloc_ok=marker_lines(source, "alloc-ok"))
        for name, summary in summaries.items():
            local[f"{decl.module}.{name}"] = summary

    project_summaries = resolve_summaries(project, local)
    costs = resolve_costs(project_summaries, config)
    orphaned = (
        _orphaned_entries({path: decl.module for path, _, decl in decls}, config)
        if whole_tree
        else {}
    )
    report = LintReport(tool=TOOL)
    for path, source, decl in decls:
        raw = check_module_interproc(decl, project_summaries, config)
        raw += check_module_concurrency(decl, config, source=source)
        raw += check_module_cost(decl, project_summaries, costs, config)
        raw += orphaned.get(path, [])
        report.extend(apply_suppressions(raw, source, path, tool=TOOL))
    report.sort()
    return report


def verify_paths(
    paths: list[str | Path],
    *,
    config: LintConfig | None = None,
) -> LintReport:
    """Run the verify rules over files/directories as one project."""
    if config is None:
        config = config_near(paths[0] if paths else Path.cwd())
    sources: list[tuple[str, str, str | None]] = []
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
            sources.append((str(file), file.read_text(encoding="utf-8"), None))
    return _analyze(sources, config, whole_tree=True)


def verify_source(
    source: str,
    *,
    path: str = "<string>",
    module: str | None = None,
    config: LintConfig | None = None,
) -> LintReport:
    """Verify one source string as a standalone single-module project."""
    config = config if config is not None else LintConfig()
    return _analyze([(path, source, module)], config, whole_tree=False)


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

    try:
        report = verify_paths(list(args.paths), config=config)
    except SyntaxError as exc:
        print(f"{TOOL}: cannot parse {exc.filename}: {exc}", file=sys.stderr)
        return EXIT_ERROR

    emit_report(report, args.format, args.output)
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


if __name__ == "__main__":
    sys.exit(main())
