"""Composable step-pipeline API (:class:`Stage` graph behind all step paths).

Public surface
--------------
* :class:`Stage` — structural protocol: ``name``, ``bucket``, ``run(ctx)``;
* :class:`StageContext` — the live view a stage works through;
* :class:`StepPipeline` — stage ordering, pre/post hooks, ``run_step``;
* :class:`BreakdownTimingHook` — the default per-stage timing hook;
* :func:`build_pipeline` / :func:`global_stages` / :func:`domain_stages` /
  :func:`stage_set_for` — stage-set selection;
* the stage vocabulary — gather/push, migrate, moving window, deposit,
  laser, solve, boundary, plus the per-subdomain variants;
* the effect contract (:mod:`repro.pipeline.effects`) — the
  :data:`~repro.pipeline.effects.RESOURCES` vocabulary, per-stage
  ``reads``/``writes`` declarations and the static write-after-read
  hazard checker :func:`~repro.pipeline.effects.check_stage_set`
  (enforced over every built stage set by ``python -m repro lint``).

The bitwise contract of the old hand-wired loops carries over unchanged:
pipeline-routed steps are bit-identical to the pre-redesign paths for
fields, J/rho and the energy history, across executor backends, shard
counts and domain splits (pinned by ``tests/test_pipeline.py``).
"""

from repro.pipeline.builder import (
    DOMAIN_STAGE_SET,
    GLOBAL_STAGE_SET,
    build_pipeline,
    domain_stages,
    global_stages,
    stage_set_for,
)
from repro.domain.runtime import (
    DomainBoundaryStage,
    DomainDepositStage,
    DomainGatherPushStage,
    DomainLaserStage,
    DomainSolveStage,
    DomainSyncStage,
    HaloExchangeStage,
)
from repro.pipeline.core import (
    BreakdownTimingHook,
    Stage,
    StageContext,
    StepPipeline,
)
from repro.pipeline.effects import (
    EXTERNAL_RESOURCES,
    RESOURCES,
    STEP_CARRIED,
    EffectViolation,
    check_stage_set,
    declared_effects,
)
from repro.pipeline.stages import (
    DepositStage,
    FieldBoundaryStage,
    FieldSolveStage,
    GatherPushStage,
    LaserStage,
    MigrateStage,
    MovingWindowStage,
)

__all__ = [
    "BreakdownTimingHook",
    "DOMAIN_STAGE_SET",
    "DepositStage",
    "DomainBoundaryStage",
    "DomainDepositStage",
    "DomainGatherPushStage",
    "DomainLaserStage",
    "DomainSolveStage",
    "DomainSyncStage",
    "EXTERNAL_RESOURCES",
    "EffectViolation",
    "FieldBoundaryStage",
    "FieldSolveStage",
    "GLOBAL_STAGE_SET",
    "GatherPushStage",
    "HaloExchangeStage",
    "LaserStage",
    "MigrateStage",
    "MovingWindowStage",
    "RESOURCES",
    "STEP_CARRIED",
    "Stage",
    "StageContext",
    "StepPipeline",
    "build_pipeline",
    "check_stage_set",
    "declared_effects",
    "domain_stages",
    "global_stages",
    "stage_set_for",
]
