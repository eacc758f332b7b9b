"""Tests for the ``repro lint`` static-analysis subsystem.

Each analyzer gets a must-flag fixture (the violation it exists to
catch) and a near-miss fixture (the closest legal construct, which must
pass).  The final class is the repository self-check: ``run_lint`` over
the real source tree must come back clean, which is what makes every
invariant the analyzers encode a tier-1 gate.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path
# module-level so PEP 563 annotations on the fixture dataclasses below
# resolve through the module globals in typing.get_type_hints
from typing import Any, Callable, Mapping, Optional, Tuple

import pytest

from repro.pipeline.effects import (
    EffectViolation,
    check_stage_set,
    conflicts,
    declared_effects,
)
from repro.tools import (
    ANALYZERS,
    LintContext,
    analyzer_names,
    format_findings,
    run_lint,
)
from repro.tools.analyzers import (
    check_backend_purity,
    check_determinism,
    check_picklable_dataclass,
    check_stage_effects,
    run_body_context_roots,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_tree(tmp_path: Path, files: dict) -> LintContext:
    """Write ``{relpath: source}`` under tmp_path and scan it."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return LintContext(tmp_path)


def rules_of(findings):
    return sorted({f.rule for f in findings})


# ----------------------------------------------------------------------
# backend-purity
# ----------------------------------------------------------------------

class TestBackendPurity:
    def test_add_at_banned_repo_wide(self, tmp_path):
        ctx = make_tree(tmp_path, {"analysis/mod.py": """
            import numpy as np

            def scatter(acc, ids, vals):
                np.add.at(acc, ids, vals)
        """})
        findings = check_backend_purity(ctx)
        assert len(findings) == 1
        assert "add.at" in findings[0].message

    def test_detects_alias_and_from_imports(self, tmp_path):
        # the ufunc's plain call and hot-path allocation are not findings
        ctx = make_tree(tmp_path, {"domain/mod.py": """
            import numpy as xyz
            from numpy import add, subtract

            def f(acc, ids, vals):
                xyz.add.at(acc, ids, vals)
                subtract.at(acc, ids, vals)
                return xyz.empty(3), add(vals, vals)
        """})
        assert len(check_backend_purity(ctx)) == 2

    def test_line_pragma_with_justification_suppresses(self, tmp_path):
        ctx = make_tree(tmp_path, {"pic/mod.py": """
            import numpy as np

            def scatter(acc, ids, vals):
                # repro-lint: allow(backend-purity): oracle the engine is pinned against
                np.add.at(acc, ids, vals)
        """})
        assert check_backend_purity(ctx) == []
        assert LintContext(tmp_path).structural_findings() == []

    def test_module_pragma_suppresses_whole_file(self, tmp_path):
        ctx = make_tree(tmp_path, {"backend/oracle.py": """
            # repro-lint: allow-module(backend-purity): reference tier
            import numpy as np

            def a(acc, ids, vals):
                np.add.at(acc, ids, vals)

            def b(acc, ids, vals):
                np.maximum.at(acc, ids, vals)
        """})
        assert check_backend_purity(ctx) == []

    def test_pragma_without_justification_is_a_finding(self, tmp_path):
        ctx = make_tree(tmp_path, {"pic/mod.py": """
            import numpy as np

            def scatter(acc, ids, vals):
                np.add.at(acc, ids, vals)  # repro-lint: allow(backend-purity)
        """})
        structural = ctx.structural_findings()
        assert [f.rule for f in structural] == ["pragma"]
        assert "justification" in structural[0].message
        # and the unjustified pragma does NOT suppress the violation
        assert len(check_backend_purity(ctx)) == 1


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------

class TestDeterminism:
    def test_flags_global_random_state(self, tmp_path):
        ctx = make_tree(tmp_path, {"analysis/mod.py": """
            import numpy as np

            def noisy(n):
                np.random.seed(0)
                return np.random.rand(n), np.random.RandomState(1)
        """})
        findings = check_determinism(ctx)
        assert len(findings) == 3
        assert any("RandomState" in f.message for f in findings)
        assert all("default_rng" in f.hint for f in findings)

    def test_near_miss_seeded_generator_passes(self, tmp_path):
        ctx = make_tree(tmp_path, {"analysis/mod.py": """
            import numpy as np

            def noisy(n, seed):
                rng = np.random.default_rng(np.random.SeedSequence(seed))
                return rng.random(n)
        """})
        assert check_determinism(ctx) == []

    def test_flags_fastmath_in_njit(self, tmp_path):
        ctx = make_tree(tmp_path, {"backend/kern.py": """
            from numba import njit

            @njit(cache=True, fastmath=True)
            def kernel(a):
                return a * 2.0
        """})
        findings = check_determinism(ctx)
        assert len(findings) == 1
        assert "fastmath" in findings[0].message

    def test_near_miss_fastmath_false_passes(self, tmp_path):
        ctx = make_tree(tmp_path, {"backend/kern.py": """
            from numba import njit

            @njit(cache=True, fastmath=False)
            def kernel(a):
                return a * 2.0
        """})
        assert check_determinism(ctx) == []

    def test_flags_wall_clock_in_jitted_body(self, tmp_path):
        ctx = make_tree(tmp_path, {"analysis/kern.py": """
            import time
            from numba import njit

            @njit
            def kernel(a):
                t0 = time.perf_counter()
                return a * 2.0, t0
        """})
        findings = check_determinism(ctx)
        assert len(findings) == 1
        assert "wall clock" in findings[0].message

    def test_wall_clock_applies_to_kernel_files_without_decorator(
            self, tmp_path):
        ctx = make_tree(tmp_path, {"backend/kernels_foo.py": """
            import time

            def kernel(a):
                return a * 2.0, time.monotonic()
        """})
        assert len(check_determinism(ctx)) == 1

    def test_near_miss_wall_clock_in_plain_function_passes(self, tmp_path):
        # timing hooks outside kernels are exactly how stages ARE timed
        ctx = make_tree(tmp_path, {"analysis/timing.py": """
            import time

            def measure(fn):
                t0 = time.perf_counter()
                fn()
                return time.perf_counter() - t0
        """})
        assert check_determinism(ctx) == []

    def test_flags_set_iteration_on_hot_path(self, tmp_path):
        ctx = make_tree(tmp_path, {"pic/mod.py": """
            def total(values):
                acc = 0.0
                for v in set(values):
                    acc += v
                return acc
        """})
        findings = check_determinism(ctx)
        assert len(findings) == 1
        assert "sorted" in findings[0].hint

    def test_near_miss_sorted_set_iteration_passes(self, tmp_path):
        ctx = make_tree(tmp_path, {"pic/mod.py": """
            def total(values):
                acc = 0.0
                for v in sorted(set(values)):
                    acc += v
                return acc
        """})
        assert check_determinism(ctx) == []


# ----------------------------------------------------------------------
# stage-effects: the effect checker itself
# ----------------------------------------------------------------------

class FakeStage:
    def __init__(self, name, reads=(), writes=()):
        self.name = name
        self.bucket = "other"
        self.reads = frozenset(reads)
        self.writes = frozenset(writes)

    def run(self, ctx):  # pragma: no cover - never executed
        pass


class TestEffectChecker:
    def test_conflicts_is_hierarchical(self):
        assert conflicts("grid", "grid.currents")
        assert conflicts("grid.currents", "grid.currents")
        assert not conflicts("grid.fields", "grid.currents")
        assert not conflicts("grid", "gridlock")

    def test_missing_declaration_is_reported(self):
        class Bare:
            name = "bare"
            bucket = "other"

            def run(self, ctx):  # pragma: no cover
                pass

        assert declared_effects(Bare()) is None
        violations = check_stage_set([Bare()])
        assert [v.kind for v in violations] == ["declaration"]

    def test_unknown_resource_is_reported(self):
        stage = FakeStage("typo", reads={"grid.curents"})
        violations = check_stage_set([stage])
        assert [v.kind for v in violations] == ["vocabulary"]
        assert "grid.curents" in violations[0].message

    def test_write_after_read_hazard_is_reported(self):
        # deposition_counters is neither external, step-carried nor
        # written earlier -> hazard, and the message names the later writer
        reader = FakeStage("reader", reads={"deposition_counters"})
        writer = FakeStage("writer", writes={"deposition_counters"})
        violations = check_stage_set([reader, writer])
        assert [v.kind for v in violations] == ["hazard"]
        assert "writer" in violations[0].message

    def test_read_after_write_passes(self):
        writer = FakeStage("writer", writes={"deposition_counters"})
        reader = FakeStage("reader", reads={"deposition_counters"})
        assert check_stage_set([writer, reader]) == []

    def test_step_carried_read_passes(self):
        # gather reads the previous step's fields before the solve
        # rewrites them: legal exactly because fields are step-carried
        gather = FakeStage("gather", reads={"grid.fields"})
        solve = FakeStage("solve", writes={"grid.fields"})
        assert check_stage_set([gather, solve]) == []


class TestStageEffectsAnalyzer:
    def test_run_body_scan_sees_context_roots(self):
        class S:
            def run(self, session):
                session.grid.jx[...] = 0.0
                return session.dt

        roots = run_body_context_roots(S.run)
        assert roots == frozenset({"grid", "dt"})

    def test_undeclared_access_through_the_run_object_is_reported(
            self, monkeypatch):
        # a stage is handed the session itself, so there is no wrapper
        # to hide behind: every first-level attribute is checked, also
        # one that is no effect resource at all (the alias, the rng)
        from repro.pipeline import builder

        class Sloppy:
            name = "sloppy"
            bucket = "other"
            reads = frozenset({"dt"})
            writes = frozenset()

            def run(self, session):
                session.containers[0].tiles
                session.grid.jx[...] = 0.0
                session.simulation.rng.random()
                return session.dt

        monkeypatch.setattr(builder, "global_stages", lambda: [Sloppy()])
        messages = [f.message for f in check_stage_effects(
            LintContext(REPO_ROOT))]
        assert messages == [
            f"Sloppy.run accesses session.{root} but declares no effect "
            f"on {root!r}" for root in ("containers", "grid", "simulation")]

    def test_shipped_declarations_are_complete_and_hazard_free(self):
        ctx = LintContext(REPO_ROOT)
        assert check_stage_effects(ctx) == []

    def test_every_shipped_stage_declares_effects(self):
        from repro.pipeline import global_stages

        for stage in global_stages():
            effects = declared_effects(stage)
            assert effects is not None, stage
            reads, writes = effects
            assert reads or writes, stage


# ----------------------------------------------------------------------
# spec-purity
# ----------------------------------------------------------------------

# module-level like real specs, so nested-dataclass hints resolve
@dataclasses.dataclass
class InnerSpec:
    values: Tuple[int, ...]


@dataclasses.dataclass
class GoodSpec:
    name: str
    inner: InnerSpec
    extra: Optional[Mapping] = None


class TestSpecPurity:
    def test_experiment_spec_is_pure(self):
        from repro.analysis.campaign import ExperimentSpec

        assert check_picklable_dataclass(ExperimentSpec) == []

    def test_flags_unpicklable_field_type(self):
        @dataclasses.dataclass
        class Bad:
            name: str
            hook: Optional[Callable[[int], int]] = None

        problems = check_picklable_dataclass(Bad)
        assert len(problems) == 1
        assert "Bad.hook" in problems[0]

    def test_near_miss_nested_dataclass_passes(self):
        assert check_picklable_dataclass(GoodSpec) == []

    def test_flags_any_annotation(self):
        @dataclasses.dataclass
        class Loose:
            payload: Any

        problems = check_picklable_dataclass(Loose)
        assert len(problems) == 1
        assert "Any" in problems[0]


# ----------------------------------------------------------------------
# driver, formatting, CLI
# ----------------------------------------------------------------------

class TestDriver:
    def test_registry_has_the_four_analyzers(self):
        assert analyzer_names() == [
            "backend-purity", "determinism", "stage-effects",
            "spec-purity",
        ]
        assert set(ANALYZERS) == set(analyzer_names())

    def test_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="unknown lint rule"):
            run_lint(root=REPO_ROOT, rules=["nope"])

    def test_rule_selection_runs_subset(self, tmp_path):
        make_tree(tmp_path, {"src/pic/mod.py": """
            import numpy as np

            def f(acc, ids, values):
                np.random.seed(0)
                np.add.at(acc, ids, values)
        """})
        all_findings = run_lint(root=tmp_path,
                                rules=["backend-purity", "determinism"])
        assert rules_of(all_findings) == ["backend-purity", "determinism"]
        only = run_lint(root=tmp_path, rules=["determinism"])
        assert rules_of(only) == ["determinism"]

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        make_tree(tmp_path, {"src/mod.py": "def broken(:\n"})
        findings = run_lint(root=tmp_path, rules=["backend-purity"])
        assert [f.rule for f in findings] == ["parse"]

    def test_json_format_round_trips(self, tmp_path):
        make_tree(tmp_path, {"src/pic/mod.py": """
            import numpy as np

            def f(acc, ids, values):
                np.add.at(acc, ids, values)
        """})
        findings = run_lint(root=tmp_path, rules=["backend-purity"])
        payload = json.loads(format_findings(findings, fmt="json"))
        assert payload["count"] == 1
        assert payload["rules"] == ["backend-purity"]
        entry = payload["findings"][0]
        assert entry["path"] == "src/pic/mod.py"
        assert entry["rule"] == "backend-purity"
        assert entry["line"] > 1
        assert entry["hint"]

    def test_table_format_mentions_location_and_count(self, tmp_path):
        make_tree(tmp_path, {"src/pic/mod.py": """
            import numpy as np

            def f(acc, ids, values):
                np.add.at(acc, ids, values)
        """})
        findings = run_lint(root=tmp_path, rules=["backend-purity"])
        table = format_findings(findings, fmt="table")
        assert "src/pic/mod.py:" in table
        assert "1 finding" in table
        assert format_findings([], fmt="table") == \
            "repro lint: no findings"


class TestCli:
    def run_cli(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", *argv],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )

    def test_lint_clean_repo_exits_zero(self):
        proc = self.run_cli("--format", "json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["count"] == 0

    def test_findings_exit_nonzero(self, tmp_path):
        (tmp_path / "src" / "pic").mkdir(parents=True)
        (tmp_path / "src" / "pic" / "mod.py").write_text(
            "import numpy as np\n\n\ndef f(a, i, v):\n    np.add.at(a, i, v)\n")
        proc = self.run_cli("--root", str(tmp_path), "--rules",
                            "backend-purity")
        assert proc.returncode == 1
        assert "backend-purity" in proc.stdout

    def test_unknown_rule_exits_two(self):
        proc = self.run_cli("--rules", "nope")
        assert proc.returncode == 2
        assert "unknown lint rule" in proc.stderr

    def test_list_rules(self):
        proc = self.run_cli("--list-rules")
        assert proc.returncode == 0
        assert proc.stdout.split() == analyzer_names()


# ----------------------------------------------------------------------
# repository self-check (the tier-1 gate) + external toolchain
# ----------------------------------------------------------------------

class TestRepositoryIsClean:
    def test_repo_lints_clean(self):
        findings = run_lint(root=REPO_ROOT)
        assert findings == [], "\n" + format_findings(findings)

    @pytest.mark.skipif(shutil.which("ruff") is None,
                        reason="ruff not installed (CI-only toolchain)")
    def test_ruff_clean(self):
        proc = subprocess.run(["ruff", "check", "src", "tests"],
                              cwd=REPO_ROOT, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    @pytest.mark.skipif(shutil.which("mypy") is None,
                        reason="mypy not installed (CI-only toolchain)")
    def test_mypy_clean(self):
        proc = subprocess.run(["mypy"], cwd=REPO_ROOT,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
