"""Periodic checkpointing as a :class:`StepPipeline` post-stage hook.

The hook rides the PR 5 hook seam instead of being a stage: it fires
after every stage, does nothing until the *last* stage of the step has
run, and then snapshots the just-completed step when it lands on the
``every`` interval.  Because hooks run before the pipeline epilogue
advances ``step_index``, the completed step is ``ctx.step_index + 1``
— the snapshot filename records the number of fully executed steps.

Like every shipped stage, the hook declares its ``reads``/``writes``
effect sets against the :mod:`repro.pipeline.effects` vocabulary so the
effect checkers (and ``python -m repro lint``) can reason about it: a
checkpoint reads essentially the whole simulation state and writes
none of it.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, List

from repro.ckpt.session import save_simulation
from repro.ckpt.store import list_snapshots, snapshot_path

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.core import Stage, StageContext

__all__ = ["CheckpointHook"]


class CheckpointHook:
    """Post-stage hook writing a snapshot every ``every`` completed steps.

    Attach with ``pipeline.add_post_hook(hook)``; detach with
    ``pipeline.remove_hook(hook)``.  ``keep`` bounds the directory to
    the newest ``keep`` snapshots (older ones are pruned best-effort
    after each write); ``None`` keeps everything.
    """

    name = "checkpoint"

    reads = frozenset({
        "step_index",
        "grid.fields", "grid.currents", "grid.geometry",
        "containers.position", "containers.momentum",
        "containers.membership",
        "simulation.moving_window", "simulation.energy",
        "simulation.deposition_counters",
    })
    writes = frozenset()

    def __init__(self, directory: str, every: int = 1,
                 keep: "int | None" = None) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        if keep is not None and keep < 1:
            raise ValueError(f"keep must be >= 1 or None, got {keep}")
        self.directory = str(directory)
        self.every = int(every)
        self.keep = keep
        #: paths written by this hook, oldest first (diagnostics/tests)
        self.saved: List[str] = []

    def __call__(self, stage: "Stage", ctx: "StageContext",
                 seconds: float) -> None:
        stages = ctx.simulation.pipeline.stages
        if not stages or stage is not stages[-1]:
            return
        completed = ctx.step_index + 1
        if completed % self.every != 0:
            return
        path = snapshot_path(self.directory, completed)
        # the epilogue has not advanced step_index yet: record the
        # completed step explicitly so resume continues *after* it
        save_simulation(ctx.simulation, path, step_index=completed)
        self.saved.append(path)
        if self.keep is not None:
            self._prune()

    def _prune(self) -> None:
        snapshots = list_snapshots(self.directory)
        for _step, path in snapshots[:-self.keep]:
            try:
                os.remove(path)
            except OSError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CheckpointHook(directory={self.directory!r}, "
                f"every={self.every})")
