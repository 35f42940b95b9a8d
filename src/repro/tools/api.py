"""Programmatic entry points for `opass-lint`.

The test suite drives the analyzer through these functions instead of
the CLI so rules can be asserted on in-memory snippets and on the real
tree::

    from repro.tools.api import lint_paths
    report = lint_paths(["src"])
    assert report.ok, report.render()

``lint_source`` accepts an explicit ``module=`` override so fixtures can
pretend to live inside ``repro.simulate`` etc.; standalone fixture files
declare the same thing with a ``# opass-lint: module=...`` directive.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path

from .callgraph import _module_from_path
from .checks import RULES, check_module
from .concurrency import CONCURRENCY_RULES
from .config import LintConfig, config_near
from .costmodel import COST_RULES
from .interproc import INTERPROC_RULES
from .model import Violation, module_directive, parse_suppressions

#: Schema version of the JSON report (bump on breaking changes).
JSON_SCHEMA_VERSION = 1

#: Every rule either front end can emit.  Suppression pragmas validate
#: against this combined table so ignoring an interprocedural rule in a
#: file checked by plain ``opass-lint`` is not itself an OPS000 error.
ALL_RULES: dict[str, str] = {
    **RULES,
    **INTERPROC_RULES,
    **CONCURRENCY_RULES,
    **COST_RULES,
}
KNOWN_RULES = frozenset(ALL_RULES)


@dataclass
class LintReport:
    """The outcome of linting a set of files."""

    violations: list[Violation] = field(default_factory=list)
    suppressed: list[Violation] = field(default_factory=list)
    files_checked: int = 0
    tool: str = "opass-lint"

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.rule] = out.get(v.rule, 0) + 1
        return out

    def extend(self, other: "LintReport") -> None:
        self.violations.extend(other.violations)
        self.suppressed.extend(other.suppressed)
        self.files_checked += other.files_checked

    def sort(self) -> None:
        key = lambda v: (v.file, v.line, v.col, v.rule)  # noqa: E731
        self.violations.sort(key=key)
        self.suppressed.sort(key=key)

    def render(self) -> str:
        """Human-readable report."""
        self.sort()
        lines = [v.render() for v in self.violations]
        if self.violations:
            by_rule = ", ".join(
                f"{rule}×{n}" for rule, n in sorted(self.counts().items())
            )
            lines.append(
                f"{len(self.violations)} violation(s) in "
                f"{self.files_checked} file(s): {by_rule}"
            )
        else:
            lines.append(
                f"ok: {self.files_checked} file(s) clean "
                f"({len(self.suppressed)} suppressed)"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        self.sort()
        return {
            "version": JSON_SCHEMA_VERSION,
            "tool": self.tool,
            "files_checked": self.files_checked,
            "ok": self.ok,
            "counts": self.counts(),
            "violations": [v.as_dict() for v in self.violations],
            "suppressed": [v.as_dict() for v in self.suppressed],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)


def apply_suppressions(
    raw: list[Violation], source: str, path: str, *, tool: str = "opass-lint"
) -> LintReport:
    """Split raw violations into reported/suppressed per the file's pragmas."""
    by_line, pragma_errors = parse_suppressions(source, path, KNOWN_RULES)
    report = LintReport(files_checked=1, tool=tool)
    report.violations.extend(pragma_errors)
    for violation in raw:
        pragma = by_line.get(violation.line)
        if pragma is not None and violation.rule in pragma.rules:
            pragma.used.add(violation.rule)
            report.suppressed.append(
                Violation(
                    file=violation.file,
                    line=violation.line,
                    col=violation.col,
                    rule=violation.rule,
                    message=violation.message,
                    suppressed=True,
                    reason=pragma.reason,
                )
            )
        else:
            report.violations.append(violation)
    return report


def lint_source(
    source: str,
    *,
    path: str = "<string>",
    module: str | None = None,
    config: LintConfig | None = None,
    relaxed: bool = False,
) -> LintReport:
    """Lint one source string; raises SyntaxError on unparsable input.

    ``relaxed`` switches to the extra-paths profile: only the rules in
    ``extra-rules`` fire (regardless of package scope, since bench and
    test files live outside the ``repro`` tree) and OPS001 tolerates
    literal seeds — benches pin seeds on purpose, but must still stay
    free of *unseeded* RNG.
    """
    config = config if config is not None else LintConfig()
    directive = module_directive(source)
    is_package = path.endswith("__init__.py")
    if module is None:
        if directive is not None:
            module = directive
            is_package = False
        else:
            module, is_package = _module_from_path(Path(path))
    tree = ast.parse(source, filename=path)
    raw = check_module(
        tree,
        path=path,
        module=module,
        config=config,
        is_package=is_package,
        relaxed=relaxed,
    )
    return apply_suppressions(raw, source, path)


def emit_report(report: LintReport, fmt: str, output: str | None) -> None:
    """Print ``report`` as ``fmt`` (human, json or sarif); copy it to ``output``."""
    if fmt == "sarif":
        from .sarif import to_sarif_json

        rendered = to_sarif_json(report)
    elif fmt == "json":
        rendered = report.to_json()
    else:
        rendered = report.render()
    print(rendered)
    if output is not None:
        Path(output).write_text(rendered + "\n", encoding="utf-8")


def _is_relaxed_path(path: Path, config: LintConfig) -> bool:
    """True when ``path`` sits under a configured ``extra-paths`` root."""
    return any(part in config.extra_paths for part in path.parts)


def lint_file(path: str | Path, *, config: LintConfig | None = None) -> LintReport:
    """Lint one file under the *full* profile.

    Profile selection by path happens only in :func:`lint_paths` (the
    CLI/CI entry): fixture tests drive ``lint_file`` on snippets under
    ``tests/data/`` and must keep every rule active.
    """
    p = Path(path)
    source = p.read_text(encoding="utf-8")
    return lint_source(source, path=str(p), config=config)


def _iter_python_files(paths: list[str | Path]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    return files


def lint_paths(
    paths: list[str | Path],
    *,
    config: LintConfig | None = None,
) -> LintReport:
    """Lint files and directories (recursively); missing paths raise.

    Files discovered by sweeping a directory under a configured
    ``extra-paths`` root (benchmarks, tests) get the relaxed profile,
    and ``exclude`` patterns prune only swept files.  A file named
    *explicitly* is always linted, under the full profile — pointing
    the linter at one file is a request for the whole rule set (and the
    lint fixture snippets live under the excluded ``tests/data/``).
    """
    if config is None:
        config = config_near(paths[0] if paths else Path.cwd())
    report = LintReport()
    for raw in paths:
        p = Path(raw)
        from_sweep = p.is_dir()
        for file in _iter_python_files([p]):
            if from_sweep and any(
                pattern in str(file) for pattern in config.exclude
            ):
                continue
            source = file.read_text(encoding="utf-8")
            report.extend(
                lint_source(
                    source,
                    path=str(file),
                    config=config,
                    relaxed=from_sweep and _is_relaxed_path(file, config),
                )
            )
    report.sort()
    return report
