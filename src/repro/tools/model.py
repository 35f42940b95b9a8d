"""Shared data model for the analyzer: violations and pragmas.

A violation pins a rule id to a ``file:line:col`` location.  All pragmas
share one ``# opass: <kind>`` grammar with a mandatory ``-- <reason>``
tail, parsed by a single reason-mandatory parser:

* ``# opass: ignore[OPS001] -- documented fallback seed`` — suppress a
  rule on this line;
* ``# opass: reassoc-ok -- int64 sum, addition is exact`` — OPS203
  reassociation waiver in kernel modules;
* ``# opass: alloc-ok -- hit holds at most |path| entries`` — OPS301
  allocation waiver inside a cost-contracted function.

A pragma is a *recorded decision*: a bare one (no reason), an unknown
rule id, or an unknown pragma kind is itself reported as **OPS000** so
it cannot silently rot.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

#: Matches the ``opass:`` pragma prefix anywhere in a comment.
_PRAGMA_ANY = re.compile(r"#\s*opass:\s*(?P<body>.*)$")
#: The suppression form of the pragma body.
_IGNORE = re.compile(r"^ignore\[(?P<ids>[^\]]*)\](?P<rest>.*)$")
#: The marker form of the pragma body (``reassoc-ok``, ``alloc-ok``, …).
_MARKER = re.compile(r"^(?P<kind>[A-Za-z][\w-]*)(?P<rest>.*)$")
_REASON = re.compile(r"^\s*--\s*(?P<reason>\S.*)$")
_RULE_ID = re.compile(r"^OPS\d{3}$")

#: Marker pragma kinds the analyzers understand, mapped to the rule each
#: waives.  Any other kind after the pragma prefix is an OPS000.
MARKER_KINDS: dict[str, str] = {
    "reassoc-ok": "OPS203",
    "alloc-ok": "OPS301",
}

#: Matches the module-override directive used by lint fixtures::
#:
#:     # opass-lint: module=repro.simulate.example
MODULE_DIRECTIVE = re.compile(r"#\s*opass-lint:\s*module=(?P<module>[\w.]+)")


@dataclass(frozen=True)
class Violation:
    """One finding: a rule fired at a location."""

    file: str
    line: int
    col: int
    rule: str
    message: str
    suppressed: bool = False
    reason: str | None = None

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }
        if self.suppressed:
            out["suppressed"] = True
            out["reason"] = self.reason
        return out

    def render(self) -> str:
        tag = " (suppressed: {})".format(self.reason) if self.suppressed else ""
        return f"{self.file}:{self.line}:{self.col}: {self.rule} {self.message}{tag}"


@dataclass
class Suppression:
    """A parsed suppression pragma on one line."""

    line: int
    rules: tuple[str, ...]
    reason: str
    used: set[str] = field(default_factory=set)


@dataclass
class PragmaIndex:
    """Every pragma in one file, parsed through the unified grammar."""

    #: line → suppression (``ignore[...]`` form, reason present).
    suppressions: dict[int, Suppression] = field(default_factory=dict)
    #: marker kind → lines carrying a well-formed waiver with a reason.
    markers: dict[str, set[int]] = field(default_factory=dict)
    #: OPS000 findings: bare/unknown kinds, unknown rule ids, no reason.
    errors: list[Violation] = field(default_factory=list)


def parse_pragmas(
    source: str, path: str, known_rules: frozenset[str] | None
) -> PragmaIndex:
    """Parse every ``# opass:`` pragma; malformed ones become OPS000.

    One grammar for both forms: ``ignore[OPSnnn, ...] -- reason`` and
    the marker kinds in :data:`MARKER_KINDS` (``reassoc-ok -- reason``,
    ``alloc-ok -- reason``).  The reason is mandatory everywhere, and an
    unknown kind after the pragma prefix is itself an error — a typo
    like ``allocok`` must not silently waive nothing.

    Only real ``#`` comments are scanned (via :mod:`tokenize`), so prose
    *describing* the grammar inside a docstring or a string literal is
    not mistaken for a pragma; on unreadable input the scan falls back
    to raw lines, which can only over-report, never miss a pragma.
    """
    index = PragmaIndex()
    comments: list[tuple[int, int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments.append((tok.start[0], tok.start[1], tok.string))
    except (tokenize.TokenError, IndentationError, SyntaxError, ValueError):
        comments = [
            (lineno, 0, text)
            for lineno, text in enumerate(source.splitlines(), start=1)
        ]
    for lineno, start_col, text in comments:
        m = _PRAGMA_ANY.search(text)
        if m is None:
            continue
        col = start_col + m.start() + 1
        body = m.group("body")
        bad: list[str] = []

        ign = _IGNORE.match(body)
        if ign is not None:
            ids = tuple(
                part.strip() for part in ign.group("ids").split(",") if part.strip()
            )
            reason_m = _REASON.match(ign.group("rest"))
            if not ids:
                bad.append("no rule ids listed")
            for rule_id in ids:
                if not _RULE_ID.match(rule_id):
                    bad.append(f"malformed rule id {rule_id!r}")
                elif known_rules is not None and rule_id not in known_rules:
                    bad.append(f"unknown rule id {rule_id!r}")
            if reason_m is None:
                bad.append("missing reason (write `-- <why this is safe>`)")
            if bad:
                index.errors.append(
                    Violation(
                        file=path,
                        line=lineno,
                        col=col,
                        rule="OPS000",
                        message="invalid suppression: " + "; ".join(bad),
                    )
                )
                continue
            assert reason_m is not None
            index.suppressions[lineno] = Suppression(
                line=lineno, rules=ids, reason=reason_m.group("reason").strip()
            )
            continue

        marker = _MARKER.match(body)
        kind = marker.group("kind") if marker is not None else None
        if kind is not None and kind in MARKER_KINDS:
            reason_m = _REASON.match(marker.group("rest"))  # type: ignore[union-attr]
            if reason_m is None:
                index.errors.append(
                    Violation(
                        file=path,
                        line=lineno,
                        col=col,
                        rule="OPS000",
                        message=(
                            f"invalid {kind} pragma: missing reason "
                            "(write `-- <why this is safe>`)"
                        ),
                    )
                )
                continue
            index.markers.setdefault(kind, set()).add(lineno)
            continue

        index.errors.append(
            Violation(
                file=path,
                line=lineno,
                col=col,
                rule="OPS000",
                message=(
                    f"unknown pragma kind {kind or body.strip()!r} "
                    f"(known: ignore[...], {', '.join(sorted(MARKER_KINDS))})"
                ),
            )
        )
    return index


def parse_suppressions(
    source: str, path: str, known_rules: frozenset[str]
) -> tuple[dict[int, Suppression], list[Violation]]:
    """Extract per-line suppressions plus *all* pragma-grammar errors.

    Thin wrapper over :func:`parse_pragmas`; the errors cover malformed
    suppressions AND malformed/unknown marker pragmas, so the one caller
    that reports OPS000 (``apply_suppressions``) sees every grammar
    problem exactly once.
    """
    index = parse_pragmas(source, path, known_rules)
    return index.suppressions, index.errors


def marker_lines(source: str, kind: str) -> set[int]:
    """Lines carrying a well-formed ``# opass: <kind> -- reason`` waiver.

    Grammar errors are *not* reported here — they surface as OPS000 via
    :func:`parse_suppressions` in ``apply_suppressions``, which every
    front end funnels through.  A bare marker therefore waives nothing.
    """
    index = parse_pragmas(source, "<ignored>", None)
    return index.markers.get(kind, set())


def module_directive(source: str) -> str | None:
    """The ``# opass-lint: module=...`` override, if present near the top."""
    for text in source.splitlines()[:10]:
        m = MODULE_DIRECTIVE.search(text)
        if m is not None:
            return m.group("module")
    return None
