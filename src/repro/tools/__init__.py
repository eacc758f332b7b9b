"""Static-analysis tooling (``python -m repro lint``).

:mod:`repro.tools.lint` is a custom AST/introspection-based invariant
checker that statically enforces the repository's core contracts — no
unbuffered ``np.<ufunc>.at`` scatter, determinism (seeded RNGs, no
fastmath, no wall-clock in kernels, ordered reductions), complete stage-effect
declarations with a hazard-free step graph, picklable campaign specs and
a drift-free public API surface.  See the README's "Static analysis &
invariants" section for the rule catalogue and the pragma escape hatch.
"""

from repro.tools.findings import Finding, PragmaError, SourceFile
from repro.tools.lint import (
    ANALYZERS,
    LintContext,
    analyzer_names,
    format_findings,
    run_lint,
)

__all__ = [
    "ANALYZERS",
    "Finding",
    "LintContext",
    "PragmaError",
    "SourceFile",
    "analyzer_names",
    "format_findings",
    "run_lint",
]
