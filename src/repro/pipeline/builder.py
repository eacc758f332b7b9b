"""The one stage list behind every step path.

Every run — single-domain, executor-sharded, domain-decomposed — steps
through the same seven stages on the frame grid.  Sharding happens
inside the stage bodies, driven by the session's executor; a decomposed
run differs inside the solve stage only
(:class:`~repro.pic.maxwell.FieldSolveStage`).

:func:`build_pipeline` attaches the default
:class:`~repro.pipeline.core.BreakdownTimingHook` so per-stage wall time
flows into :class:`~repro.pic.diagnostics.RuntimeBreakdown` without any
ad-hoc timing blocks in the loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.pipeline.core import BreakdownTimingHook, Stage, StepPipeline
from repro.pipeline.stages import (
    DepositStage,
    FieldBoundaryStage,
    FieldSolveStage,
    GatherPushStage,
    LaserStage,
    MigrateStage,
    MovingWindowStage,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import Session


def global_stages() -> List[Stage]:
    """The stage list of every run, in execution order."""
    return [
        GatherPushStage(),
        MovingWindowStage(),
        MigrateStage(),
        DepositStage(),
        LaserStage(),
        FieldSolveStage(),
        FieldBoundaryStage(),
    ]


def build_pipeline(session: "Session") -> StepPipeline:
    """The step pipeline for a session, timing hook attached.

    Every :class:`~repro.api.Session` calls this once at construction;
    ``Session.step`` then just runs the returned pipeline.
    """
    pipeline = StepPipeline(global_stages(), session)
    pipeline.add_post_hook(BreakdownTimingHook())
    return pipeline
