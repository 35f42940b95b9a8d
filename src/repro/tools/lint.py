"""Command-line front end: ``python -m repro.tools.lint [paths...]``.

Exit codes:

* ``0`` — no unsuppressed violations;
* ``1`` — at least one violation (or an invalid suppression pragma);
* ``2`` — usage/configuration error (missing path, bad config table,
  unparsable target file).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .api import ALL_RULES, LintReport, emit_report, lint_file, lint_paths
from .config import ConfigError, config_near, load_config

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.lint",
        description=(
            "opass-lint: reproduction-specific static analysis "
            "(determinism, layering, hot paths)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
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
        help="pyproject.toml with a [tool.opass-lint] table "
        "(default: nearest pyproject.toml above the first path)",
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
        help="print the rule table and exit",
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
        print(f"opass-lint: config error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    for path in args.paths:
        if not Path(path).exists():
            print(f"opass-lint: no such path: {path}", file=sys.stderr)
            return EXIT_ERROR

    try:
        report = lint_paths(list(args.paths), config=config)
    except SyntaxError as exc:
        print(f"opass-lint: cannot parse {exc.filename}: {exc}", file=sys.stderr)
        return EXIT_ERROR

    emit_report(report, args.format, args.output)
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


# re-exported for convenience so `from repro.tools.lint import lint_file` works
__all__ = ["EXIT_ERROR", "EXIT_OK", "EXIT_VIOLATIONS", "LintReport", "lint_file", "main"]


if __name__ == "__main__":
    sys.exit(main())
