"""Step-pipeline core: the :class:`Stage` protocol and the
:class:`StepPipeline` that owns stage ordering and hooks.

One pipeline instance drives **every** step path of the library — the
global single-domain loop, the executor-sharded loop and the
domain-decomposed loop (the solve stage runs per subdomain slab) —
through one stage list (:mod:`repro.pipeline.builder`), so new
capabilities — per-stage instrumentation, checkpointing, health probes —
plug in as hooks instead of being threaded through copies of the PIC
cycle.  Stages and hooks are handed the run itself, the
:class:`~repro.api.Session`; there is no second view of it.

Determinism contract
--------------------
The pipeline adds **no** floating-point work of its own: ``run_step``
invokes the stages' ``run`` methods in list order with only wall-clock
bookkeeping between them, so a pipeline-routed step is bitwise identical
to the pre-pipeline hand-wired loop for fields, J/rho and the energy
history — across backends, shard counts and domain splits.

A *stage* is any object with a unique ``name``, a ``bucket`` (the coarse
Figure-1 category its wall time rolls up into, e.g.
``current_deposition``) and a ``run(session)`` method; no registration
or base class is required (structural typing via :class:`Stage`).
"""

from __future__ import annotations

import time
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    FrozenSet,
    Iterable,
    List,
    Protocol,
    Tuple,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import Session

#: hook signatures: pre-stage ``hook(stage, session)``, post-stage
#: ``hook(stage, session, seconds)`` with the stage's wall-clock seconds,
#: step ``hook(session)`` once per completed step
PreStageHook = Callable[["Stage", "Session"], None]
PostStageHook = Callable[["Stage", "Session", float], None]
StepHook = Callable[["Session"], None]


@runtime_checkable
class Stage(Protocol):
    """One named unit of the PIC step cycle.

    ``name`` must be unique within a pipeline; ``bucket`` names the
    coarse Figure-1 category (``field_gather_push``,
    ``boundary_redistribute``, ``current_deposition``, ``field_solve``)
    the stage's wall time is credited to; ``run`` performs the work,
    mutating the session's state.

    ``reads`` and ``writes`` declare the stage's *effects*: the
    :mod:`repro.pipeline.effects` resources it consumes and produces.
    The declarations are the input to the static write-after-read hazard
    checker (:func:`repro.pipeline.effects.check_stage_set`) and are
    verified complete against the ``run`` body by the ``stage-effects``
    rule of ``tests/test_static_rules.py`` — every shipped stage must
    carry them.
    """

    name: str
    bucket: str
    reads: FrozenSet[str]
    writes: FrozenSet[str]

    def run(self, session: "Session") -> None: ...


class StepPipeline:
    """Ordered stage list advancing a session by one step at a time.

    The pipeline owns the stage ordering and three hook points:
    *pre-stage* hooks fire before each stage, *post-stage* hooks fire
    after it with the stage's wall-clock seconds (this is where
    :class:`BreakdownTimingHook` lives), and *step* hooks fire once per
    completed step, after the epilogue — the breakdown's step mark and
    the ``session.step_index`` advance — so ``session.step_index`` is the
    number of completed steps when they run.  The pipeline alone knows
    the stage list; no hook has to work out which stage is the last.

    ``run_step`` brackets the step and every stage with a span on the
    session's telemetry and closes them in ``finally``, so a run that
    dies mid-step still exports a well-nested trace.
    """

    def __init__(self, stages: Iterable[Stage], session: "Session") -> None:
        self._stages: List[Stage] = []
        self.session = session
        self._pre_hooks: List[PreStageHook] = []
        self._post_hooks: List[PostStageHook] = []
        self._step_hooks: List[StepHook] = []
        for stage in stages:
            self.append(stage)

    # ------------------------------------------------------------------
    # the stage list
    # ------------------------------------------------------------------
    @property
    def stages(self) -> Tuple[Stage, ...]:
        """The stages in execution order (immutable view)."""
        return tuple(self._stages)

    def stage_names(self) -> Tuple[str, ...]:
        """The stage names in execution order."""
        return tuple(stage.name for stage in self._stages)

    def append(self, stage: Stage) -> None:
        """Add a stage at the end of the pipeline."""
        name = getattr(stage, "name", None)
        bucket = getattr(stage, "bucket", None)
        if not isinstance(name, str) or not name:
            raise TypeError(f"stage {stage!r} has no usable name")
        if not isinstance(bucket, str) or not bucket:
            raise TypeError(f"stage {name!r} has no timing bucket")
        if not callable(getattr(stage, "run", None)):
            raise TypeError(f"stage {name!r} has no run() method")
        if name in self.stage_names():
            raise ValueError(f"duplicate stage name {name!r}")
        self._stages.append(stage)

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def add_pre_hook(self, hook: PreStageHook) -> PreStageHook:
        """Register ``hook(stage, session)`` to fire before every stage."""
        self._pre_hooks.append(hook)
        return hook

    def add_post_hook(self, hook: PostStageHook) -> PostStageHook:
        """Register ``hook(stage, session, seconds)`` to fire after every
        stage."""
        self._post_hooks.append(hook)
        return hook

    def add_step_hook(self, hook: StepHook) -> StepHook:
        """Register ``hook(session)`` to fire after every completed step."""
        self._step_hooks.append(hook)
        return hook

    def remove_hook(self, hook: Any) -> bool:
        """Detach a previously added hook; True when something was removed."""
        removed = False
        for hooks in (self._pre_hooks, self._post_hooks, self._step_hooks):
            if hook in hooks:
                hooks.remove(hook)
                removed = True
        return removed

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def run_step(self) -> None:
        """Advance the session by one step through every stage.

        Stages run strictly in list order; each is wall-clock timed and
        reported to the post-stage hooks.  The epilogue (breakdown step
        mark + ``step_index`` advance) matches the pre-pipeline loops
        exactly; the step hooks run after it, inside the step span.
        """
        session = self.session
        telemetry = session.telemetry
        step_span = f"step {session.step_index}"
        telemetry.begin_span(step_span, cat="step")
        try:
            for stage in self._stages:
                for hook in self._pre_hooks:
                    hook(stage, session)
                telemetry.begin_span(stage.name, cat=stage.bucket)
                start = time.perf_counter()
                try:
                    stage.run(session)
                    elapsed = time.perf_counter() - start
                finally:
                    telemetry.end_span(stage.name)
                for hook in self._post_hooks:
                    hook(stage, session, elapsed)
            session.breakdown.finish_step()
            session.step_index += 1
            for hook in self._step_hooks:
                hook(session)
        finally:
            telemetry.end_span(step_span)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StepPipeline(stages={list(self.stage_names())})"


class BreakdownTimingHook:
    """Post-stage hook feeding per-stage wall time into the breakdown.

    Every stage's seconds land both under its own name
    (``breakdown.stage_seconds``) and under its coarse bucket
    (``breakdown.seconds``), the Figure-1 categories.
    """

    def __call__(self, stage: Stage, session: "Session",
                 seconds: float) -> None:
        session.breakdown.record_stage(stage.name, stage.bucket, seconds)
