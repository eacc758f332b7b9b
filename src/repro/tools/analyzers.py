"""The repro-lint rule implementations.

Four analyzers enforce the repository's core contracts:

``backend-purity``
    ``np.<ufunc>.at`` is banned repo-wide: scatter-add goes through the
    run's kernel table (:mod:`repro.backend`), where the fused tier can
    replace it and the flat-index engine fixes the summation order.
    All other bulk math and allocation is plain NumPy.

``determinism``
    Seeded ``numpy.random.Generator`` streams only — the legacy
    ``RandomState`` and the global-state ``np.random.*`` functions are
    banned everywhere.  ``fastmath=True`` is banned in ``njit``/``jit``
    decorators (it licenses reassociation, breaking the bitwise
    oracle/fused contract).  Kernel bodies (``njit``-decorated functions
    and anything in ``kernels_*.py``) may not read wall clocks.  Hot-path
    modules may not iterate sets directly (unordered iteration feeding
    FP accumulation reorders sums between runs) — sort first.

``stage-effects``
    Every shipped pipeline stage must declare complete ``reads`` /
    ``writes`` effect sets (AST-checked against every attribute its
    ``run`` body touches on the session it is handed), and the built
    stage list must pass the static write-after-read hazard check
    :func:`repro.pipeline.effects.check_stage_set`.

``spec-purity``
    :class:`repro.analysis.campaign.ExperimentSpec` (and every workload
    dataclass registered for it) must stay picklable *by construction*:
    recursing through dataclass field types may only meet atoms,
    standard containers, Optional/Union of those, and nested
    dataclasses.

Each analyzer is a function ``(LintContext) -> List[Finding]``; the
registry lives in :mod:`repro.tools.lint`.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import textwrap
import typing
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.tools.findings import Finding, SourceFile

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tools.lint import LintContext

__all__ = [
    "HOT_PATH_PACKAGES",
    "check_backend_purity",
    "check_determinism",
    "check_picklable_dataclass",
    "check_spec_purity",
    "check_stage_effects",
    "run_body_context_roots",
]

# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------


def _numpy_aliases(tree: ast.AST) -> Tuple[set, Dict[str, str]]:
    """Module aliases bound to numpy, and names imported from it.

    Returns ``(aliases, from_names)`` where ``aliases`` holds local names
    bound to the numpy module (``np`` for ``import numpy as np``) and
    ``from_names`` maps a local name to its dotted numpy path for
    ``from numpy import zeros`` style imports.
    """
    aliases = set()
    from_names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    aliases.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module \
                and (node.module == "numpy"
                     or node.module.startswith("numpy.")):
            prefix = node.module[len("numpy"):].lstrip(".")
            for alias in node.names:
                dotted = f"{prefix}.{alias.name}" if prefix else alias.name
                from_names[alias.asname or alias.name] = dotted
    return aliases, from_names


def _dotted_chain(node: ast.AST) -> Optional[List[str]]:
    """``np.random.seed`` -> ["np", "random", "seed"]; None if not dotted."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return parts[::-1]


def _numpy_path(node: ast.AST, aliases: set,
                from_names: Dict[str, str]) -> Optional[str]:
    """The ``numpy``-relative dotted path of an expression, or None.

    ``np.add.at`` -> ``"add.at"``; a bare ``zeros`` imported via
    ``from numpy import zeros`` -> ``"zeros"``.
    """
    chain = _dotted_chain(node)
    if not chain:
        return None
    head, rest = chain[0], chain[1:]
    if head in aliases:
        return ".".join(rest) if rest else None
    if head in from_names:
        return ".".join([from_names[head], *rest])
    return None


# ----------------------------------------------------------------------
# backend-purity
# ----------------------------------------------------------------------

RULE_BACKEND = "backend-purity"


def _backend_purity_file(sf: SourceFile) -> Iterable[Finding]:
    if sf.tree is None:
        return
    aliases, from_names = _numpy_aliases(sf.tree)
    if not aliases and not from_names:
        return
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.Call):
            continue
        path = _numpy_path(node.func, aliases, from_names)
        if path is not None and path.endswith(".at"):
            finding = sf.finding(
                RULE_BACKEND, node.lineno,
                f"unbuffered numpy scatter `np.{path}` is banned repo-wide",
                hint="route scatter-adds through the run's kernel table "
                     "(grid.kernels) so the fused tier can replace them",
            )
            if finding is not None:
                yield finding


def check_backend_purity(ctx: "LintContext") -> List[Finding]:
    findings: List[Finding] = []
    for sf in ctx.files:
        findings.extend(_backend_purity_file(sf))
    return findings


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------

RULE_DETERMINISM = "determinism"

#: path components marking a module as hot-path (feeds FP accumulation)
HOT_PATH_PACKAGES = frozenset({"pic", "domain", "exec", "backend"})


def is_hot_path(rel_path: str) -> bool:
    return bool(HOT_PATH_PACKAGES.intersection(Path(rel_path).parts))


#: ``np.random.<name>`` attributes that are deterministic-by-seed and
#: therefore allowed; everything else on the module touches the hidden
#: global stream.
_ALLOWED_RANDOM_ATTRS = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

#: dotted call paths that read a wall clock
_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.now", "datetime.utcnow",
})


def _decorator_name(node: ast.AST) -> Optional[str]:
    target = node.func if isinstance(node, ast.Call) else node
    chain = _dotted_chain(target)
    return chain[-1] if chain else None


def _is_kernel_file(rel_path: str) -> bool:
    return Path(rel_path).name.startswith("kernels_")


def _determinism_file(sf: SourceFile) -> Iterable[Finding]:
    if sf.tree is None:
        return
    aliases, from_names = _numpy_aliases(sf.tree)

    # --- banned RNG surface (module-wide) ---
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.Attribute):
            continue
        path = _numpy_path(node, aliases, from_names)
        if path is None or not path.startswith("random."):
            continue
        leaf = path.split(".", 1)[1]
        if "." in leaf or leaf in _ALLOWED_RANDOM_ATTRS:
            continue
        if leaf == "RandomState":
            message = ("legacy `np.random.RandomState` is banned; its "
                       "stream contract is frozen but its API hides the "
                       "seed plumbing")
        else:
            message = (f"`np.random.{leaf}` uses the hidden global "
                       "random stream")
        finding = sf.finding(
            RULE_DETERMINISM, node.lineno, message,
            hint="thread an explicit seeded generator: "
                 "`rng = np.random.default_rng(seed)`",
        )
        if finding is not None:
            yield finding

    # --- fastmath in njit/jit decorators, and kernel-body wall clocks ---
    kernel_file = _is_kernel_file(sf.rel_path)
    for node in ast.walk(sf.tree):
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
                    finding = sf.finding(
                        RULE_DETERMINISM, keyword.value.lineno,
                        "`fastmath` in a jit decorator licenses FP "
                        "reassociation; fused kernels must stay "
                        "bitwise-identical to the oracle",
                        hint="drop the flag (numba defaults to "
                             "fastmath=False)",
                    )
                    if finding is not None:
                        yield finding
        if not (jitted or kernel_file):
            continue
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Call):
                continue
            chain = _dotted_chain(inner.func)
            if chain and ".".join(chain) in _WALL_CLOCK_CALLS:
                finding = sf.finding(
                    RULE_DETERMINISM, inner.lineno,
                    f"kernel body reads the wall clock "
                    f"(`{'.'.join(chain)}`)",
                    hint="time kernels from the caller (the pipeline "
                         "timing hook); clock reads inside kernels "
                         "perturb numerics-affecting JIT caching",
                )
                if finding is not None:
                    yield finding

    # --- unordered set iteration on the hot path ---
    if not is_hot_path(sf.rel_path):
        return
    for node in ast.walk(sf.tree):
        iters: List[ast.AST] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            is_set = isinstance(it, ast.Set) or (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name)
                and it.func.id in ("set", "frozenset"))
            if not is_set:
                continue
            finding = sf.finding(
                RULE_DETERMINISM, it.lineno,
                "iterating a set on the hot path: unordered iteration "
                "feeding FP accumulation reorders sums between runs",
                hint="iterate `sorted(...)` of the set instead",
            )
            if finding is not None:
                yield finding


def check_determinism(ctx: "LintContext") -> List[Finding]:
    findings: List[Finding] = []
    for sf in ctx.files:
        findings.extend(_determinism_file(sf))
    return findings


# ----------------------------------------------------------------------
# stage-effects
# ----------------------------------------------------------------------

RULE_STAGE_EFFECTS = "stage-effects"


def run_body_context_roots(run_method) -> FrozenSet[str]:
    """Session attributes a stage's ``run`` body accesses, by AST scan.

    Parses the method source and collects every ``<session>.<attr>``
    access where ``<session>`` is the method's parameter: a stage is
    handed the :class:`~repro.api.Session` and nothing else, so these
    first-level attributes are everything it can reach, and each must be
    the root of a declared :data:`~repro.pipeline.effects.RESOURCES` name.
    """
    source = textwrap.dedent(inspect.getsource(run_method))
    tree = ast.parse(source)
    func = next(node for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
    params = [arg.arg for arg in func.args.args]
    if not params:
        return frozenset()
    ctx_param = params[1] if params[0] == "self" and len(params) > 1 \
        else params[0]
    roots = set()
    for node in ast.walk(func):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == ctx_param):
            roots.add(node.attr)
    return frozenset(roots)


def _stage_location(ctx: "LintContext", stage) -> Tuple[str, int]:
    try:
        path = Path(inspect.getsourcefile(type(stage)) or "")
        line = inspect.getsourcelines(type(stage))[1]
        return ctx.relativize(path), line
    except (OSError, TypeError):
        return "src/repro/pipeline/builder.py", 1


def check_stage_effects(ctx: "LintContext") -> List[Finding]:
    from repro.pipeline import builder
    from repro.pipeline.effects import (
        check_stage_set,
        conflicts,
        declared_effects,
    )

    findings: List[Finding] = []
    # one list: the executor-sharded and domain-decomposed runs step
    # through the same stage classes as the global one
    stages = builder.global_stages()

    # hazard + declaration check of the built list
    by_name = {getattr(s, "name", type(s).__name__): s for s in stages}
    for violation in check_stage_set(stages):
        stage = by_name.get(violation.stage)
        path, line = _stage_location(ctx, stage) if stage is not None \
            else ("src/repro/pipeline/builder.py", 1)
        findings.append(Finding(
            rule=RULE_STAGE_EFFECTS, path=path, line=line,
            message=f"stage {violation.stage!r}: [{violation.kind}] "
                    f"{violation.message}",
            hint="fix the reads/writes declaration or reorder the "
                 "stage list",
        ))

    # AST completeness: each stage class's run body vs its declaration
    for stage in stages:
        cls = type(stage)
        declared = declared_effects(stage)
        if declared is None:
            continue  # already reported by check_stage_set
        declared_names = declared[0] | declared[1]
        try:
            accessed = run_body_context_roots(cls.run)
        except (OSError, TypeError, SyntaxError):
            continue
        path, line = _stage_location(ctx, stage)
        for root in sorted(accessed):
            if any(conflicts(name, root) for name in declared_names):
                continue
            findings.append(Finding(
                rule=RULE_STAGE_EFFECTS, path=path, line=line,
                message=f"{cls.__name__}.run accesses session.{root} "
                        f"but declares no effect on {root!r}",
                hint=f"add the touched `{root}.*` resource to the "
                     "stage's reads or writes",
            ))
    return findings


# ----------------------------------------------------------------------
# spec-purity
# ----------------------------------------------------------------------

RULE_SPEC_PURITY = "spec-purity"

_ATOMIC_TYPES = (str, int, float, bool, bytes, type(None))
_CONTAINER_ORIGINS = {
    list, tuple, dict, set, frozenset,
    typing.List, typing.Tuple, typing.Dict, typing.Set,
    typing.FrozenSet, typing.Sequence, typing.Mapping,
    typing.MutableMapping, typing.Iterable,
}
try:  # collections.abc origins as produced by typing.get_origin
    import collections.abc as _abc

    _CONTAINER_ORIGINS.update({
        _abc.Sequence, _abc.Mapping, _abc.MutableMapping, _abc.Iterable,
        _abc.Set,
    })
except ImportError:  # pragma: no cover - stdlib always present
    pass


def check_picklable_dataclass(cls, _seen: Optional[set] = None
                              ) -> List[str]:
    """Problems that make a dataclass not picklable-by-construction.

    Recurses through field type annotations; returns human-readable
    problem strings (empty list == pure).  Atoms, standard containers,
    Optional/Union of pure types and nested dataclasses are pure;
    anything else (callables, arbitrary classes, ``Any``) is flagged —
    such values *may* pickle, but nothing guarantees it, and spec
    hashing/caching relies on the guarantee.
    """
    if _seen is None:
        _seen = set()
    if cls in _seen:
        return []
    _seen.add(cls)
    problems: List[str] = []
    try:
        hints = typing.get_type_hints(cls)
    except Exception as exc:  # unresolvable forward refs etc.
        return [f"{cls.__name__}: cannot resolve field type hints "
                f"({exc})"]
    for field_obj in dataclasses.fields(cls):
        annotation = hints.get(field_obj.name, field_obj.type)
        problems.extend(
            f"{cls.__name__}.{field_obj.name}: {problem}"
            for problem in _annotation_problems(annotation, _seen)
        )
    return problems


def _annotation_problems(annotation, seen: set) -> List[str]:
    if annotation in _ATOMIC_TYPES:
        return []
    if annotation is typing.Any:
        return ["`Any` gives no picklability guarantee; name the "
                "concrete type"]
    origin = typing.get_origin(annotation)
    if origin is typing.Union:
        return [p for arg in typing.get_args(annotation)
                for p in _annotation_problems(arg, seen)]
    if origin is not None:
        if origin in _CONTAINER_ORIGINS:
            return [p for arg in typing.get_args(annotation)
                    if arg is not Ellipsis
                    for p in _annotation_problems(arg, seen)]
        return [f"unsupported generic {annotation!r}"]
    if annotation in _CONTAINER_ORIGINS:
        return []  # bare Mapping/Sequence
    if dataclasses.is_dataclass(annotation):
        return check_picklable_dataclass(annotation, seen)
    return [f"type {annotation!r} is not picklable-by-construction"]


def check_spec_purity(ctx: "LintContext") -> List[Finding]:
    from repro.analysis import campaign
    from repro.workloads import FAMILIES

    findings: List[Finding] = []
    targets = [campaign.ExperimentSpec]
    targets.extend(family["builder"] for _, family in sorted(FAMILIES.items()))
    seen_problems = set()
    for cls in targets:
        try:
            path = Path(inspect.getsourcefile(cls) or "")
            line = inspect.getsourcelines(cls)[1]
            rel = ctx.relativize(path)
        except (OSError, TypeError):
            rel, line = "src/repro/analysis/campaign.py", 1
        for problem in check_picklable_dataclass(cls):
            if problem in seen_problems:
                continue
            seen_problems.add(problem)
            findings.append(Finding(
                rule=RULE_SPEC_PURITY, path=rel, line=line,
                message=f"spec field is not picklable-by-construction: "
                        f"{problem}",
                hint="specs must carry only JSON-able data (atoms, "
                     "containers, nested dataclasses); convert the "
                     "value at the spec boundary",
            ))
    return findings
