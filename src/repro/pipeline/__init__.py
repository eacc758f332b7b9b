"""Composable step-pipeline API (:class:`Stage` graph behind all step paths).

Public surface
--------------
* :class:`Stage` — structural protocol: ``name``, ``bucket``,
  ``run(session)`` (stages and hooks are handed the
  :class:`~repro.api.Session` itself);
* :class:`StepPipeline` — stage ordering, pre-stage / post-stage / step
  hooks, ``run_step``;
* :class:`BreakdownTimingHook` — the default per-stage timing hook;
* :func:`build_pipeline` / :func:`global_stages` — the one stage list;
* the stage vocabulary — gather/push, moving window, migrate, deposit,
  laser, solve, boundary — each declaring the ``reads``/``writes``
  effect sets that the ``stage-effects`` rule of
  ``tests/test_static_rules.py`` checks (vocabulary and write-after-read
  hazard checker: ``tests/stage_effects.py``).

The bitwise contract of the old hand-wired loops carries over unchanged:
pipeline-routed steps are bit-identical to the pre-redesign paths for
fields, J/rho and the energy history, across executor backends, shard
counts and domain splits (pinned by ``tests/test_pipeline.py``).
"""

from repro.pipeline.builder import build_pipeline, global_stages
from repro.pipeline.core import (
    BreakdownTimingHook,
    Stage,
    StepPipeline,
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
    "DepositStage",
    "FieldBoundaryStage",
    "FieldSolveStage",
    "GatherPushStage",
    "LaserStage",
    "MigrateStage",
    "MovingWindowStage",
    "Stage",
    "StepPipeline",
    "build_pipeline",
    "global_stages",
]
