"""Incremental analysis cache for ``opass-verify`` (``.opass-cache/``).

Two content-addressed stores, both keyed so that *any* relevant change
misses cleanly instead of serving stale results:

* **summary bundles** — per-module :class:`~.summaries.LocalSummary`
  tables plus the module's name and runtime deps, keyed by
  ``sha256(source)`` alone (summaries do not depend on the config).
  Parsing a module is cheap; *summarizing* it (the per-function
  dataflow walk) is the expensive part, and that is what a bundle hit
  skips.
* **check results** — the raw OPS101–OPS103, OPS203 and OPS301–OPS303
  violations for one module, keyed by the module key, the check-config
  and per-module contract digests **and a closure signature**: the hash
  of every (module, content-hash) pair in its transitive import
  closure.  Editing a leaf module therefore invalidates exactly
  the modules that can see it, and nothing else.

Both stores live under ``.opass-cache/v<ANALYZER_VERSION>/`` so bumping
:data:`~.callgraph.ANALYZER_VERSION` abandons old entries wholesale.
Corrupt or unreadable entries count as misses — the cache can be
deleted (or half-deleted) at any time without affecting results.

Known approximations: dynamic-dispatch fallback resolution consults
*every* class in the project, not just the import closure, so renaming a
same-named method in an unrelated module does not invalidate cached
check results.  Config edits are covered by the check digests;
``--no-cache`` (or removing ``.opass-cache/``) forces a guaranteed-fresh
pass.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .callgraph import ANALYZER_VERSION, source_fingerprint
from .summaries import LocalSummary

#: Bumped when the on-disk bundle layout changes (independent of the
#: analyzer semantics version, which also participates in the path).
CACHE_FORMAT = 1


@dataclass
class CacheStats:
    """Hit/miss counters, surfaced by ``verify --stats`` and the tests."""

    summary_hits: int = 0
    summary_misses: int = 0
    check_hits: int = 0
    check_misses: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "summary_hits": self.summary_hits,
            "summary_misses": self.summary_misses,
            "check_hits": self.check_hits,
            "check_misses": self.check_misses,
        }


def module_key(source: str) -> str:
    """Cache key of one module: its content hash."""
    return source_fingerprint(source)[:32]


def closure_signature(members: list[tuple[str, str]]) -> str:
    """Signature of a module's import closure: ``(module, key)`` pairs."""
    payload = json.dumps(sorted(members))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


class AnalysisCache:
    """Filesystem-backed cache; ``root=None`` disables it (all misses)."""

    def __init__(self, root: str | Path | None, stats: CacheStats | None = None):
        self.root = Path(root) if root is not None else None
        self.stats = stats if stats is not None else CacheStats()

    def _dir(self, kind: str) -> Path:
        assert self.root is not None
        return self.root / f"v{ANALYZER_VERSION}.{CACHE_FORMAT}" / kind

    def _read(self, kind: str, name: str) -> dict | list | None:
        if self.root is None:
            return None
        path = self._dir(kind) / f"{name}.json"
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None

    def _write(self, kind: str, name: str, payload: object) -> None:
        if self.root is None:
            return
        directory = self._dir(kind)
        try:
            directory.mkdir(parents=True, exist_ok=True)
            tmp = directory / f"{name}.json.tmp"
            tmp.write_text(json.dumps(payload), encoding="utf-8")
            tmp.replace(directory / f"{name}.json")
        except OSError:
            pass  # a read-only cache dir must not fail the analysis

    # ---- summary bundles ---------------------------------------------------

    def load_bundle(self, key: str) -> dict | None:
        """``{"module", "deps", "functions"}`` for a module key, or None.

        Counts a summary hit/miss; the ``functions`` table maps local
        qualnames to :class:`LocalSummary` dicts (decode with
        :meth:`LocalSummary.from_dict`).
        """
        data = self._read("summaries", key)
        if (
            isinstance(data, dict)
            and isinstance(data.get("module"), str)
            and isinstance(data.get("deps"), list)
            and isinstance(data.get("functions"), dict)
        ):
            self.stats.summary_hits += 1
            return data
        self.stats.summary_misses += 1
        return None

    def store_bundle(
        self,
        key: str,
        module: str,
        deps: set[str],
        functions: dict[str, LocalSummary],
    ) -> None:
        self._write(
            "summaries",
            key,
            {
                "module": module,
                "deps": sorted(deps),
                "functions": {
                    name: summary.to_dict() for name, summary in functions.items()
                },
            },
        )

    # ---- per-module check results ------------------------------------------

    def load_checks(self, key: str, closure_sig: str) -> list[dict] | None:
        """Raw (pre-suppression) violation dicts for one module, or None."""
        data = self._read("checks", f"{key}.{closure_sig}")
        if isinstance(data, list) and all(isinstance(v, dict) for v in data):
            self.stats.check_hits += 1
            return data
        self.stats.check_misses += 1
        return None

    def store_checks(
        self, key: str, closure_sig: str, violations: list[dict]
    ) -> None:
        self._write("checks", f"{key}.{closure_sig}", violations)
