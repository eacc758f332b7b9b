"""The repro-lint driver: file loading, analyzer registry, formatting.

``run_lint(root)`` scans every Python file under ``<root>/src``, runs
the requested analyzers and returns sorted findings.  ``python -m repro
lint`` and the tier-1 self-check (``tests/test_lint.py``) are thin
wrappers over it — the CLI exits nonzero on any finding, and the test
suite asserts the repository lints clean, so the invariants the
analyzers encode are enforced on every CI run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.tools import analyzers
from repro.tools.findings import Finding, SourceFile

__all__ = [
    "ANALYZERS",
    "LintContext",
    "analyzer_names",
    "default_root",
    "format_findings",
    "run_lint",
]

#: rule id for files that fail to parse (not suppressible)
PARSE_RULE = "parse"


class LintContext:
    """The scanned source tree an analyzer run works over."""

    def __init__(self, root: Path, source_dirs: Optional[Sequence[Path]]
                 = None):
        self.root = Path(root).resolve()
        if source_dirs is None:
            src = self.root / "src"
            source_dirs = [src] if src.is_dir() else [self.root]
        self.source_dirs = [Path(d).resolve() for d in source_dirs]
        self.files: List[SourceFile] = [
            SourceFile(self.root, path)
            for directory in self.source_dirs
            for path in sorted(directory.rglob("*.py"))
        ]

    def relativize(self, path: Path) -> str:
        """Repo-relative posix form of a path (absolute when outside)."""
        try:
            return Path(path).resolve().relative_to(self.root).as_posix()
        except ValueError:
            return Path(path).as_posix()

    def structural_findings(self) -> List[Finding]:
        """Parse errors and malformed pragmas — reported on every run."""
        findings: List[Finding] = []
        for sf in self.files:
            if sf.parse_error is not None:
                findings.append(Finding(
                    rule=PARSE_RULE, path=sf.rel_path,
                    line=sf.parse_error.lineno or 1,
                    message=f"file does not parse: "
                            f"{sf.parse_error.msg}",
                    hint="fix the syntax error",
                ))
            findings.extend(sf.pragma_findings())
        return findings


#: analyzer registry: rule id -> (LintContext) -> findings.  Order is
#: the documentation/report order; ``run_lint`` preserves it.
ANALYZERS: Dict[str, Callable[[LintContext], List[Finding]]] = {
    "backend-purity": analyzers.check_backend_purity,
    "determinism": analyzers.check_determinism,
    "stage-effects": analyzers.check_stage_effects,
    "spec-purity": analyzers.check_spec_purity,
}


def analyzer_names() -> List[str]:
    """The registered rule ids, in report order."""
    return list(ANALYZERS)


def default_root() -> Path:
    """The repository root, autodetected from the installed package.

    ``src/repro/tools/lint.py`` -> three parents up from the package
    directory.  Falls back to the current directory when the package is
    not laid out as a ``src`` tree (e.g. zipapp installs).
    """
    import repro

    package_dir = Path(repro.__file__).resolve().parent
    root = package_dir.parent.parent
    if (root / "src" / "repro").is_dir():
        return root
    return Path.cwd()


def run_lint(root: Optional[Path] = None,
             rules: Optional[Sequence[str]] = None) -> List[Finding]:
    """Run the requested analyzers; return sorted findings.

    ``rules=None`` runs every registered analyzer.  Structural findings
    (syntax errors, malformed pragmas) are always included — the pragma
    escape hatch is only sound while its audit is unconditional.
    """
    if root is None:
        root = default_root()
    if rules is None:
        selected = list(ANALYZERS)
    else:
        unknown = sorted(set(rules) - set(ANALYZERS))
        if unknown:
            raise ValueError(
                f"unknown lint rule(s) {unknown}; available: "
                f"{analyzer_names()}")
        selected = [name for name in ANALYZERS if name in set(rules)]
    ctx = LintContext(Path(root))
    findings = ctx.structural_findings()
    for name in selected:
        findings.extend(ANALYZERS[name](ctx))
    return sorted(findings, key=lambda f: f.sort_key)


def format_findings(findings: Sequence[Finding],
                    fmt: str = "table") -> str:
    """Render findings as an aligned table or a JSON document."""
    if fmt == "json":
        payload = {
            "count": len(findings),
            "rules": sorted({f.rule for f in findings}),
            "findings": [f.to_json() for f in findings],
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    if fmt != "table":
        raise ValueError(f"unknown format {fmt!r}; expected "
                         "'table' or 'json'")
    if not findings:
        return "repro lint: no findings"
    location_width = max(len(f"{f.path}:{f.line}") for f in findings)
    rule_width = max(len(f.rule) for f in findings)
    lines = []
    for finding in findings:
        location = f"{finding.path}:{finding.line}"
        text = finding.message
        if finding.hint:
            text = f"{text}  [fix: {finding.hint}]"
        lines.append(f"{location:<{location_width}}  "
                     f"{finding.rule:<{rule_width}}  {text}")
    lines.append(f"repro lint: {len(findings)} finding"
                 f"{'s' if len(findings) != 1 else ''}")
    return "\n".join(lines)
