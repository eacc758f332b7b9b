"""Periodic checkpointing as a :class:`StepPipeline` step hook.

The hook rides the PR 5 hook seam instead of being a stage: the pipeline
calls it once per completed step, after the epilogue has advanced
``step_index``, and it snapshots the session when that count lands on
the ``every`` interval — the snapshot filename records the number of
fully executed steps.

Like every shipped stage, the hook declares its ``reads``/``writes``
effect sets over the stage resource vocabulary
(``tests/stage_effects.py``, read by the ``stage-effects`` rule): a
checkpoint reads essentially the whole simulation state and writes
none of it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ckpt.session import save_simulation
from repro.ckpt.store import snapshot_path

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import Session

__all__ = ["CheckpointHook"]


class CheckpointHook:
    """Step hook writing a snapshot every ``every`` completed steps.

    Attach with ``pipeline.add_step_hook(hook)``; detach with
    ``pipeline.remove_hook(hook)``.  Every snapshot is kept: the hook
    deletes no file.
    """

    name = "checkpoint"

    reads = frozenset({
        "config", "step_index",
        "grid.fields", "grid.currents", "grid.geometry",
        "containers.position", "containers.momentum",
        "containers.membership",
        "moving_window", "energy", "deposition_counters",
        "telemetry",
    })
    writes = frozenset({"telemetry"})

    def __init__(self, directory: str, every: int = 1) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.directory = str(directory)
        self.every = int(every)

    def __call__(self, session: "Session") -> None:
        if session.step_index % self.every != 0:
            return
        path = snapshot_path(self.directory, session.step_index)
        save_simulation(session, path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CheckpointHook(directory={self.directory!r}, "
                f"every={self.every})")
