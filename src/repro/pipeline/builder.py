"""The one stage list behind every step path.

Every run — single-domain, executor-sharded, domain-decomposed — steps
through the same seven stages on the frame grid.  Sharding happens
inside the stage bodies, driven by the executor carried in the context;
a decomposed run differs inside the solve stage only
(:class:`~repro.pic.maxwell.FieldSolveStage`).

:func:`build_pipeline` attaches the default
:class:`~repro.pipeline.core.BreakdownTimingHook` so per-stage wall time
flows into :class:`~repro.pic.diagnostics.RuntimeBreakdown` without any
ad-hoc timing blocks in the loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.pipeline.core import BreakdownTimingHook, Stage, StageContext, StepPipeline
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
    from repro.pic.simulation import Simulation


def global_stages() -> List[Stage]:
    """The stage list of every run, in execution order."""
    return [
        GatherPushStage(),
        MigrateStage(),
        MovingWindowStage(),
        DepositStage(),
        LaserStage(),
        FieldSolveStage(),
        FieldBoundaryStage(),
    ]


def build_pipeline(simulation: "Simulation") -> StepPipeline:
    """The step pipeline for a simulation, timing hook attached.

    Every :class:`~repro.pic.simulation.Simulation` calls this once at
    construction; ``Simulation.step`` (and the
    :class:`~repro.api.Session` facade above it) then just runs the
    returned pipeline.
    """
    pipeline = StepPipeline(global_stages(), StageContext(simulation))
    pipeline.add_post_hook(BreakdownTimingHook())
    return pipeline
