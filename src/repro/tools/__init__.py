"""`opass-lint` / `opass-verify`: static analysis for the reproduction.

The simulator's claims — bit-reproducible runs from a seed, numpy
kernels bit-identical to the scalar solvers they replace, hot paths
that stay within their asymptotic budgets, strict package layering —
are properties the test suite can only spot-check.  This package
enforces them statically, on every commit:

* :mod:`repro.tools.lint` — the intraprocedural front end
  (``python -m repro.tools.lint src/``, rules OPS000–OPS006);
* :mod:`repro.tools.verify` — the interprocedural front end
  (``python -m repro.tools.verify src/``, rules OPS101–OPS103:
  determinism taint, unit/dimension checking, scheduler purity; OPS203
  float identity; OPS301–OPS303 cost contracts), one uncached pass
  over the whole tree per run;
* :mod:`repro.tools.api` — the programmatic entry used by the test
  suite (``lint_source`` / ``lint_file`` / ``lint_paths``);
* :mod:`repro.tools.checks` — the per-module AST rules (OPS001–OPS006);
* :mod:`repro.tools.callgraph` / :mod:`repro.tools.summaries` /
  :mod:`repro.tools.interproc` — the project-wide call-graph and
  dataflow-summary engine behind OPS101–OPS103;
* :mod:`repro.tools.concurrency` / :mod:`repro.tools.costmodel` — the
  OPS203 and OPS301–OPS303 passes on that engine;
* :mod:`repro.tools.config` — ``[tool.opass-lint]`` configuration.

``repro.tools`` sits at the top of the package layering DAG and must not
be imported by any other ``repro`` package.
"""

from .._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        "api": ("ALL_RULES", "LintReport", "lint_file", "lint_paths", "lint_source"),
        "checks": ("RULES",),
        "config": ("DEFAULT_LAYERS", "LintConfig", "load_config"),
        "interproc": ("INTERPROC_RULES",),
        "model": ("Violation",),
        # Loaded only on access, so `python -m repro.tools.verify` does
        # not trip runpy's found-in-sys.modules warning.
        "verify": ("verify_paths", "verify_source"),
    },
)
