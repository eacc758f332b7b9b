"""The repository's static rules, as tier-1 tests.

Each rule is one function over a source root that returns
``"path:line: message"`` strings.  It gets a must-flag fixture (the
violation it exists to catch) and a near-miss fixture (the closest legal
construct, which must pass), and ``TestRepositoryIsClean`` runs it over
``src/repro`` and expects nothing.  There is no suppression pragma: a
module that needs an exception is a test oracle, and lives under
``tests/``.

``backend-purity``
    ``np.<ufunc>.at`` is banned: scatter-add goes through the run's
    kernel table (:mod:`repro.backend`), where the fused tier can replace
    it and the flat-index engine fixes the summation order.  All other
    bulk math and allocation is plain NumPy.

``determinism``
    Seeded ``numpy.random.Generator`` streams only — the legacy
    ``RandomState`` and the global-state ``np.random.*`` functions are
    banned.  ``fastmath`` is banned in ``njit``/``jit`` decorators (it
    licenses reassociation, breaking the bitwise oracle/fused contract).
    Kernel bodies (``njit``-decorated functions and anything in
    ``kernels_*.py``) may not read wall clocks.  Hot-path modules may not
    iterate sets directly (unordered iteration feeding FP accumulation
    reorders sums between runs) — sort first.

``stage-effects``
    Every shipped pipeline stage declares complete ``reads``/``writes``
    effect sets (AST-checked against every attribute its ``run`` body
    touches on the session it is handed), and the stage list passes the
    write-after-read hazard check
    :func:`repro.pipeline.effects.check_stage_set`.

``spec-purity``
    :class:`repro.analysis.campaign.ExperimentSpec` and every workload
    dataclass stay picklable *by construction*: recursing through
    dataclass field types may only meet atoms, standard containers,
    Optional/Union of those, and nested dataclasses.
"""

from __future__ import annotations

import ast
import collections.abc
import dataclasses
import inspect
import os
import shutil
import subprocess
import textwrap
import typing
# module-level so PEP 563 annotations on the fixture dataclasses below
# resolve through the module globals in typing.get_type_hints
from typing import Any, Callable, Mapping, Optional, Tuple

import pytest

from repro.analysis.campaign import ExperimentSpec
from repro.pipeline import builder
from repro.pipeline.effects import check_stage_set, conflicts, declared_effects
from repro.workloads import FAMILIES

from ast_helpers import SRC, dotted_chain, numpy_aliases, numpy_path, source_trees

REPO_ROOT = os.path.dirname(os.path.dirname(SRC))


def location(root, obj, fallback):
    """``path:line`` of a class's source, relative to ``root`` if inside."""
    try:
        path = inspect.getsourcefile(obj) or ""
        line = inspect.getsourcelines(obj)[1]
    except (OSError, TypeError):
        return fallback
    relative = os.path.relpath(path, root)
    if not relative.startswith(".."):
        path = relative.replace(os.sep, "/")
    return f"{path}:{line}"


# ----------------------------------------------------------------------
# the rules
# ----------------------------------------------------------------------

def check_backend_purity(root):
    findings = []
    for path, tree in source_trees(root):
        aliases, from_names = numpy_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = numpy_path(node.func, aliases, from_names)
            if dotted is not None and dotted.endswith(".at"):
                findings.append(
                    f"{path}:{node.lineno}: unbuffered numpy scatter "
                    f"`np.{dotted}` is banned; route scatter-adds through the "
                    "run's kernel table (grid.kernels) so the fused tier can "
                    "replace them")
    return findings


#: path components marking a module as hot-path (feeds FP accumulation)
HOT_PATH_PACKAGES = frozenset({"pic", "domain", "exec", "backend"})

#: ``np.random.<name>`` attributes that are deterministic-by-seed and
#: therefore allowed; everything else on the module touches the hidden
#: global stream
ALLOWED_RANDOM_ATTRS = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

#: dotted call paths that read a wall clock
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.now", "datetime.utcnow",
})

SEEDED = "thread an explicit seeded generator: `rng = np.random.default_rng(seed)`"


def _decorator_name(node):
    chain = dotted_chain(node.func if isinstance(node, ast.Call) else node)
    return chain[-1] if chain else None


def _determinism_problems(path, tree):
    """``(line, message)`` of every determinism violation in one module."""
    # the banned RNG surface, module-wide
    aliases, from_names = numpy_aliases(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        dotted = numpy_path(node, aliases, from_names)
        if dotted is None or not dotted.startswith("random."):
            continue
        leaf = dotted.split(".", 1)[1]
        if "." in leaf or leaf in ALLOWED_RANDOM_ATTRS:
            continue
        if leaf == "RandomState":
            yield node.lineno, (
                "legacy `np.random.RandomState` is banned; its stream "
                "contract is frozen but its API hides the seed plumbing; "
                f"{SEEDED}")
        else:
            yield node.lineno, (f"`np.random.{leaf}` uses the hidden global "
                                f"random stream; {SEEDED}")

    # fastmath in njit/jit decorators, and wall clocks in kernel bodies
    kernel_file = os.path.basename(path).startswith("kernels_")
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        jitted = False
        for decorator in node.decorator_list:
            if _decorator_name(decorator) not in ("njit", "jit"):
                continue
            jitted = True
            if not isinstance(decorator, ast.Call):
                continue
            for keyword in decorator.keywords:
                if keyword.arg == "fastmath" and not (
                        isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is False):
                    yield keyword.value.lineno, (
                        "`fastmath` in a jit decorator licenses FP "
                        "reassociation; fused kernels must stay bitwise "
                        "identical to the oracle (numba defaults to "
                        "fastmath=False)")
        if not (jitted or kernel_file):
            continue
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Call):
                continue
            chain = dotted_chain(inner.func)
            if chain and ".".join(chain) in WALL_CLOCK_CALLS:
                yield inner.lineno, (
                    f"kernel body reads the wall clock (`{'.'.join(chain)}`); "
                    "time kernels from the caller (the pipeline timing hook)")

    # unordered set iteration on the hot path
    if not HOT_PATH_PACKAGES.intersection(path.split("/")):
        return
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters = [generator.iter for generator in node.generators]
        else:
            continue
        for it in iters:
            if isinstance(it, ast.Set) or (
                    isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                    and it.func.id in ("set", "frozenset")):
                yield it.lineno, (
                    "iterating a set on the hot path: unordered iteration "
                    "feeding FP accumulation reorders sums between runs; "
                    "iterate `sorted(...)` of the set instead")


def check_determinism(root):
    return [f"{path}:{line}: {message}"
            for path, tree in source_trees(root)
            for line, message in _determinism_problems(path, tree)]


def run_body_context_roots(run_method):
    """Session attributes a stage's ``run`` body accesses, by AST scan.

    Collects every ``<session>.<attr>`` access where ``<session>`` is the
    method's parameter: a stage is handed the :class:`~repro.api.Session`
    and nothing else, so these first-level attributes are everything it
    can reach, and each must be the root of a declared
    :data:`~repro.pipeline.effects.RESOURCES` name.
    """
    tree = ast.parse(textwrap.dedent(inspect.getsource(run_method)))
    func = next(node for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
    params = [arg.arg for arg in func.args.args]
    if not params:
        return frozenset()
    session = params[1] if params[0] == "self" and len(params) > 1 \
        else params[0]
    return frozenset(node.attr for node in ast.walk(func)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name)
                     and node.value.id == session)


def check_stage_effects(root):
    # one list: the executor-sharded and domain-decomposed runs step
    # through the same stage classes as the global one
    stages = builder.global_stages()
    fallback = "pipeline/builder.py:1"
    by_name = {getattr(s, "name", type(s).__name__): s for s in stages}
    findings = []
    for violation in check_stage_set(stages):
        where = location(root, type(by_name[violation.stage]), fallback)
        findings.append(
            f"{where}: stage {violation.stage!r}: [{violation.kind}] "
            f"{violation.message}; fix the reads/writes declaration or "
            "reorder the stage list")
    # completeness: each stage class's run body against its declaration
    for stage in stages:
        cls, declared = type(stage), declared_effects(stage)
        if declared is None:
            continue  # already reported by check_stage_set
        try:
            accessed = run_body_context_roots(cls.run)
        except (OSError, TypeError, SyntaxError):
            continue
        where = location(root, cls, fallback)
        findings += [
            f"{where}: {cls.__name__}.run accesses session.{name} but "
            f"declares no effect on {name!r}"
            for name in sorted(accessed)
            if not any(conflicts(resource, name)
                       for resource in declared[0] | declared[1])]
    return findings


ATOMIC_TYPES = (str, int, float, bool, bytes, type(None))
CONTAINER_ORIGINS = {
    list, tuple, dict, set, frozenset,
    typing.List, typing.Tuple, typing.Dict, typing.Set,
    typing.FrozenSet, typing.Sequence, typing.Mapping,
    typing.MutableMapping, typing.Iterable,
    # the origins typing.get_origin reports for the aliases above
    collections.abc.Sequence, collections.abc.Mapping,
    collections.abc.MutableMapping, collections.abc.Iterable,
    collections.abc.Set,
}


def check_picklable_dataclass(cls, seen=None):
    """Problems that make a dataclass not picklable-by-construction.

    Recurses through field type annotations.  Atoms, standard
    containers, Optional/Union of pure types and nested dataclasses are
    pure; anything else (callables, arbitrary classes, ``Any``) is
    flagged — such values *may* pickle, but nothing guarantees it, and
    spec hashing/caching relies on the guarantee.
    """
    seen = set() if seen is None else seen
    if cls in seen:
        return []
    seen.add(cls)
    try:
        hints = typing.get_type_hints(cls)
    except Exception as exc:  # unresolvable forward refs etc.
        return [f"{cls.__name__}: cannot resolve field type hints ({exc})"]
    return [f"{cls.__name__}.{field.name}: {problem}"
            for field in dataclasses.fields(cls)
            for problem in _annotation_problems(
                hints.get(field.name, field.type), seen)]


def _annotation_problems(annotation, seen):
    if annotation in ATOMIC_TYPES:
        return []
    if annotation is typing.Any:
        return ["`Any` gives no picklability guarantee; name the concrete "
                "type"]
    origin = typing.get_origin(annotation)
    if origin is typing.Union:
        return [p for arg in typing.get_args(annotation)
                for p in _annotation_problems(arg, seen)]
    if origin is not None:
        if origin in CONTAINER_ORIGINS:
            return [p for arg in typing.get_args(annotation)
                    if arg is not Ellipsis
                    for p in _annotation_problems(arg, seen)]
        return [f"unsupported generic {annotation!r}"]
    if annotation in CONTAINER_ORIGINS:
        return []  # bare Mapping/Sequence
    if dataclasses.is_dataclass(annotation):
        return check_picklable_dataclass(annotation, seen)
    return [f"type {annotation!r} is not picklable-by-construction"]


def check_spec_purity(root):
    targets = [ExperimentSpec]
    targets += [family["builder"] for _, family in sorted(FAMILIES.items())]
    findings, reported = [], set()
    for cls in targets:
        where = location(root, cls, "analysis/campaign.py:1")
        for problem in check_picklable_dataclass(cls):
            if problem not in reported:
                reported.add(problem)
                findings.append(
                    f"{where}: spec field is not picklable-by-construction: "
                    f"{problem}; specs carry only JSON-able data (atoms, "
                    "containers, nested dataclasses)")
    return findings


RULES = {
    "backend-purity": check_backend_purity,
    "determinism": check_determinism,
    "stage-effects": check_stage_effects,
    "spec-purity": check_spec_purity,
}


def write_tree(tmp_path, files):
    """Write ``{relpath: source}`` under tmp_path; return it as a root."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return str(tmp_path)


# ----------------------------------------------------------------------
# backend-purity
# ----------------------------------------------------------------------

class TestBackendPurity:
    def test_add_at_banned_repo_wide(self, tmp_path):
        findings = check_backend_purity(write_tree(tmp_path, {
            "analysis/mod.py": """
            import numpy as np

            def scatter(acc, ids, vals):
                np.add.at(acc, ids, vals)
        """}))
        assert len(findings) == 1
        assert findings[0].startswith("analysis/mod.py:5: ")
        assert "add.at" in findings[0]

    def test_detects_alias_and_from_imports(self, tmp_path):
        # the ufunc's plain call and hot-path allocation are not findings
        root = write_tree(tmp_path, {"domain/mod.py": """
            import numpy as xyz
            from numpy import add, subtract

            def f(acc, ids, vals):
                xyz.add.at(acc, ids, vals)
                subtract.at(acc, ids, vals)
                return xyz.empty(3), add(vals, vals)
        """})
        assert len(check_backend_purity(root)) == 2

    def test_near_miss_reduceat_and_non_numpy_at_pass(self, tmp_path):
        root = write_tree(tmp_path, {"pic/mod.py": """
            import numpy as np

            def f(acc, ids, vals, frame):
                frame.add.at(acc, ids, vals)
                return np.add.reduceat(vals, ids), np.bincount(ids, vals)
        """})
        assert check_backend_purity(root) == []

    # the former ``# repro-lint: allow(...)`` exceptions are plain comments
    # now: a module that needs np.<ufunc>.at is a test oracle
    def test_line_pragma_no_longer_suppresses(self, tmp_path):
        root = write_tree(tmp_path, {"pic/mod.py": """
            import numpy as np

            def scatter(acc, ids, vals):
                # repro-lint: allow(backend-purity): oracle the engine is pinned against
                np.add.at(acc, ids, vals)
        """})
        assert len(check_backend_purity(root)) == 1

    def test_module_pragma_no_longer_suppresses(self, tmp_path):
        root = write_tree(tmp_path, {"backend/oracle.py": """
            # repro-lint: allow-module(backend-purity): reference tier
            import numpy as np

            def a(acc, ids, vals):
                np.add.at(acc, ids, vals)

            def b(acc, ids, vals):
                np.maximum.at(acc, ids, vals)
        """})
        assert len(check_backend_purity(root)) == 2


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------

class TestDeterminism:
    def test_flags_global_random_state(self, tmp_path):
        findings = check_determinism(write_tree(tmp_path, {
            "analysis/mod.py": """
            import numpy as np

            def noisy(n):
                np.random.seed(0)
                return np.random.rand(n), np.random.RandomState(1)
        """}))
        assert len(findings) == 3
        assert any("RandomState" in f for f in findings)
        assert all("default_rng" in f for f in findings)

    def test_near_miss_seeded_generator_passes(self, tmp_path):
        root = write_tree(tmp_path, {"analysis/mod.py": """
            import numpy as np

            def noisy(n, seed):
                rng = np.random.default_rng(np.random.SeedSequence(seed))
                return rng.random(n)
        """})
        assert check_determinism(root) == []

    def test_flags_fastmath_in_njit(self, tmp_path):
        findings = check_determinism(write_tree(tmp_path, {
            "backend/kern.py": """
            from numba import njit

            @njit(cache=True, fastmath=True)
            def kernel(a):
                return a * 2.0
        """}))
        assert len(findings) == 1
        assert "fastmath" in findings[0]

    def test_near_miss_fastmath_false_passes(self, tmp_path):
        root = write_tree(tmp_path, {"backend/kern.py": """
            from numba import njit

            @njit(cache=True, fastmath=False)
            def kernel(a):
                return a * 2.0
        """})
        assert check_determinism(root) == []

    def test_flags_wall_clock_in_jitted_body(self, tmp_path):
        findings = check_determinism(write_tree(tmp_path, {
            "analysis/kern.py": """
            import time
            from numba import njit

            @njit
            def kernel(a):
                t0 = time.perf_counter()
                return a * 2.0, t0
        """}))
        assert len(findings) == 1
        assert "wall clock" in findings[0]

    def test_wall_clock_applies_to_kernel_files_without_decorator(
            self, tmp_path):
        root = write_tree(tmp_path, {"backend/kernels_foo.py": """
            import time

            def kernel(a):
                return a * 2.0, time.monotonic()
        """})
        assert len(check_determinism(root)) == 1

    def test_near_miss_wall_clock_in_plain_function_passes(self, tmp_path):
        # timing hooks outside kernels are exactly how stages ARE timed
        root = write_tree(tmp_path, {"analysis/timing.py": """
            import time

            def measure(fn):
                t0 = time.perf_counter()
                fn()
                return time.perf_counter() - t0
        """})
        assert check_determinism(root) == []

    def test_flags_set_iteration_on_hot_path(self, tmp_path):
        findings = check_determinism(write_tree(tmp_path, {"pic/mod.py": """
            def total(values):
                acc = 0.0
                for v in set(values):
                    acc += v
                return acc
        """}))
        assert len(findings) == 1
        assert "sorted" in findings[0]

    def test_near_miss_sorted_set_iteration_passes(self, tmp_path):
        root = write_tree(tmp_path, {"pic/mod.py": """
            def total(values):
                acc = 0.0
                for v in sorted(set(values)):
                    acc += v
                return acc
        """})
        assert check_determinism(root) == []


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
        messages = [finding.split(": ", 1)[1]
                    for finding in check_stage_effects(SRC)]
        assert messages == [
            f"Sloppy.run accesses session.{root} but declares no effect "
            f"on {root!r}" for root in ("containers", "grid", "simulation")]

    def test_shipped_declarations_are_complete_and_hazard_free(self):
        assert check_stage_effects(SRC) == []

    def test_every_shipped_stage_declares_effects(self):
        for stage in builder.global_stages():
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
# the rule set
# ----------------------------------------------------------------------

class TestRuleSet:
    def test_the_four_rules(self):
        assert list(RULES) == [
            "backend-purity", "determinism", "stage-effects", "spec-purity"]

    @pytest.mark.parametrize("rule", ["backend-purity", "determinism"])
    def test_an_unparseable_module_is_not_skipped(self, tmp_path, rule):
        root = write_tree(tmp_path, {"pic/mod.py": "def broken(:\n"})
        with pytest.raises(SyntaxError):
            RULES[rule](root)

    def test_findings_come_in_path_order(self, tmp_path):
        scatter = """
            import numpy as np

            def f(acc, ids, vals):
                np.add.at(acc, ids, vals)
        """
        root = write_tree(tmp_path, {"pic/mod.py": scatter,
                                     "analysis/mod.py": scatter})
        assert [finding.split(": ", 1)[0]
                for finding in check_backend_purity(root)] == [
            "analysis/mod.py:5", "pic/mod.py:5"]


# ----------------------------------------------------------------------
# the repository check (one test per rule) + external toolchain
# ----------------------------------------------------------------------

def plant_in_src(tmp_path, monkeypatch, statement):
    """A copy of ``src/repro`` whose pic/gather.py ends in ``statement``."""
    root = tmp_path / "repro"
    shutil.copytree(SRC, root, ignore=shutil.ignore_patterns("__pycache__"))
    with open(root / "pic" / "gather.py", "a", encoding="utf-8") as stream:
        stream.write(f"\n\ndef planted(acc, ids, vals):\n    {statement}\n")
    return str(root), "pic/gather.py"


def plant_undeclared_session_read(tmp_path, monkeypatch):
    from repro.pic.laser import LaserStage

    class PlantedLaserStage(LaserStage):
        def run(self, session):
            session.rng.random()
            super().run(session)

    shipped = builder.global_stages()
    monkeypatch.setattr(builder, "global_stages", lambda: [
        PlantedLaserStage() if isinstance(stage, LaserStage) else stage
        for stage in shipped])
    return SRC, "PlantedLaserStage.run accesses session.rng"


def plant_any_workload_field(tmp_path, monkeypatch):
    family = FAMILIES["uniform"]

    @dataclasses.dataclass
    class PlantedWorkload(family["builder"]):
        payload: Any = None

    monkeypatch.setitem(FAMILIES, "uniform",
                        {**family, "builder": PlantedWorkload})
    return SRC, "PlantedWorkload.payload"


#: rule -> plant(tmp_path, monkeypatch) -> (root, text of the finding)
PLANTED = {
    "backend-purity": lambda *args: plant_in_src(
        *args, "np.add.at(acc, ids, vals)"),
    "determinism": lambda *args: plant_in_src(*args, "np.random.seed(0)"),
    "stage-effects": plant_undeclared_session_read,
    "spec-purity": plant_any_workload_field,
}


class TestRepositoryIsClean:
    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_src_obeys(self, rule):
        findings = RULES[rule](SRC)
        assert findings == [], f"{rule}:\n" + "\n".join(findings)

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_a_planted_violation_fails_the_src_check(
            self, tmp_path, monkeypatch, rule):
        # the repository check is not vacuous: one violation of its rule
        # planted in (a copy of) src/ is exactly what it reports
        root, expected = PLANTED[rule](tmp_path, monkeypatch)
        findings = RULES[rule](root)
        assert len(findings) == 1, findings
        assert expected in findings[0]

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
