"""Declared stage effects and the static step-graph hazard checker.

Every shipped pipeline stage declares the *resources* it ``reads`` and
``writes`` as two frozensets of dotted resource names (see
:data:`RESOURCES`).  The declarations are a machine-checked contract,
enforced in two layers:

* the ``stage-effects`` rule of ``tests/test_static_rules.py``
  AST-scans each stage's ``run`` method for attribute accesses on the
  :class:`~repro.api.Session` it is handed and verifies the
  declarations are *complete*: every session attribute the body
  touches must be the root of at least one declared resource;
* :func:`check_stage_set` replays the built stage list against the
  declarations and reports **write-after-read ordering hazards**: a
  stage that consumes a resource before any same-step producer has run
  must either read genuinely *step-carried* state (:data:`STEP_CARRIED`
  — e.g. the leap-frog fields gathered before the solve rewrites them)
  or an external per-step input (:data:`EXTERNAL_RESOURCES`).  Anything
  else reads a value a later stage is about to clobber — exactly the
  dependency that silently breaks when stages are reordered.

Resource names are hierarchical: ``"grid.currents"`` conflicts with
``"grid.currents"`` and with ``"grid"`` but not with ``"grid.fields"``.
The roots are exactly the :class:`~repro.api.Session` attribute names —
a stage is handed the session and nothing else — which is what makes the
AST completeness check possible without executing any stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.pipeline.core import Stage

__all__ = [
    "EXTERNAL_RESOURCES",
    "RESOURCES",
    "STEP_CARRIED",
    "EffectViolation",
    "check_stage_set",
    "conflicts",
    "declared_effects",
]

#: The closed resource vocabulary stages may declare effects over.  The
#: first dotted component is always a :class:`~repro.api.Session`
#: attribute name; finer components name the piece of that object the
#: stage touches.  Extend this tuple (and the carried/external sets
#: below) in the same change that introduces a new resource.
RESOURCES: FrozenSet[str] = frozenset({
    # per-step external inputs (never written by a stage)
    "config",
    "dt",
    "step_index",
    "time",
    "executor",
    "breakdown",
    # the run's metric/event registry (repro.obs); an external
    # accumulator like `breakdown` — recording never orders stages
    "telemetry",
    # the session's construction-time services and accumulators
    "pusher",
    "deposition",
    "deposition_counters",
    "laser",
    "solver",
    "boundaries",
    "moving_window",
    "energy",
    # the global frame grid
    "grid.fields",
    "grid.currents",
    "grid.geometry",
    # particle state (positions/momenta/weights vs. tile membership)
    "containers.position",
    "containers.momentum",
    "containers.membership",
    # domain-decomposed state (the slabs are the solve stage's scratch,
    # not a resource: nothing outlives the stage that fills them)
    "domain.solvers",
    "domain.migration",
})

#: Resources whose value legitimately crosses the step boundary: a stage
#: may read them before any same-step writer because it is consuming the
#: *previous* step's value (leap-frog fields, particle state, window
#: origin, accumulated statistics).  A read that is neither step-carried
#: nor external and has no earlier same-step writer is a hazard.
STEP_CARRIED: FrozenSet[str] = frozenset({
    "grid.fields",
    "grid.currents",
    "grid.geometry",
    "containers.position",
    "containers.momentum",
    "containers.membership",
    "domain.migration",
    "energy",
})

#: Read-only per-step inputs and construction-time services.  Reading
#: them never constitutes an ordering dependency.
EXTERNAL_RESOURCES: FrozenSet[str] = frozenset({
    "config",
    "dt",
    "step_index",
    "time",
    "executor",
    "breakdown",
    "telemetry",
    "pusher",
    "deposition",
    "laser",
    "solver",
    "boundaries",
    "moving_window",
    "domain.solvers",
})


@dataclass(frozen=True)
class EffectViolation:
    """One contract violation found by the effect checker."""

    #: which check fired ("declaration", "vocabulary", "hazard")
    kind: str
    #: name of the offending stage
    stage: str
    #: human-readable description of the violation
    message: str

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return f"[{self.kind}] {self.stage}: {self.message}"


def conflicts(a: str, b: str) -> bool:
    """Whether two resource names address overlapping state.

    Dotted names are hierarchical: equal names conflict, and so do a
    name and any of its dotted prefixes (``"grid"`` vs
    ``"grid.currents"``).  Siblings (``"grid.fields"`` vs
    ``"grid.currents"``) do not.
    """
    return a == b or a.startswith(b + ".") or b.startswith(a + ".")


def declared_effects(stage: Stage) -> Optional[Tuple[FrozenSet[str],
                                                     FrozenSet[str]]]:
    """The ``(reads, writes)`` declaration of a stage, or None if absent.

    Returns None when either attribute is missing or is not a set of
    strings — callers distinguish "undeclared" from "declared empty".
    """
    reads = getattr(stage, "reads", None)
    writes = getattr(stage, "writes", None)
    for effects in (reads, writes):
        if not isinstance(effects, (set, frozenset)):
            return None
        if not all(isinstance(name, str) for name in effects):
            return None
    return frozenset(reads), frozenset(writes)  # type: ignore[arg-type]


def _declaration_violations(stage: Stage) -> List[EffectViolation]:
    name = getattr(stage, "name", type(stage).__name__)
    effects = declared_effects(stage)
    if effects is None:
        return [EffectViolation(
            kind="declaration", stage=name,
            message="stage declares no reads/writes effect sets "
                    "(add frozenset attributes `reads` and `writes`)",
        )]
    violations = []
    for label, names in zip(("reads", "writes"), effects):
        unknown = sorted(n for n in names if n not in RESOURCES)
        if unknown:
            violations.append(EffectViolation(
                kind="vocabulary", stage=name,
                message=f"{label} declare unknown resource(s) {unknown}; "
                        "extend repro.pipeline.effects.RESOURCES or fix "
                        "the spelling",
            ))
    return violations


def _written_before(index: int, resource: str,
                    effects: Sequence[Tuple[FrozenSet[str], FrozenSet[str]]]
                    ) -> bool:
    return any(
        conflicts(resource, written)
        for _, writes in effects[:index]
        for written in writes
    )


def check_stage_set(stages: Iterable[Stage]) -> List[EffectViolation]:
    """Static write-after-read hazard check of one ordered stage set.

    For every stage, in list order: each resource it reads must have a
    same-step producer *earlier* in the list, or be declared step-carried
    (:data:`STEP_CARRIED`) or external (:data:`EXTERNAL_RESOURCES`).  A
    read that fails all three consumes a value some later stage
    overwrites within the same step — a write-after-read ordering hazard
    that reordering or overlapping the stages would turn into a race.

    Returns all violations (declaration problems included); an empty
    list means the set is hazard-free.
    """
    stages = list(stages)
    violations: List[EffectViolation] = []
    effects: List[Tuple[FrozenSet[str], FrozenSet[str]]] = []
    for stage in stages:
        violations.extend(_declaration_violations(stage))
        declared = declared_effects(stage)
        effects.append(declared if declared is not None
                       else (frozenset(), frozenset()))
    if violations:
        return violations
    for index, stage in enumerate(stages):
        reads, _ = effects[index]
        for resource in sorted(reads):
            if resource in EXTERNAL_RESOURCES or resource in STEP_CARRIED:
                continue
            if _written_before(index, resource, effects):
                continue
            writers = sorted(
                getattr(other, "name", type(other).__name__)
                for other, (_, w) in zip(stages[index + 1:],
                                         effects[index + 1:])
                if any(conflicts(resource, written) for written in w)
            )
            message = (
                f"reads {resource!r} before any same-step writer"
                + (f" (written later by {writers})" if writers else "")
                + "; declare the resource step-carried in "
                  "repro.pipeline.effects.STEP_CARRIED or move a "
                  "producing stage earlier"
            )
            violations.append(EffectViolation(
                kind="hazard",
                stage=getattr(stage, "name", type(stage).__name__),
                message=message,
            ))
    return violations
