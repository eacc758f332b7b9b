"""The one cell runner: :func:`run_spec` builds, steps and measures the
session of one :class:`~repro.analysis.campaign.ExperimentSpec` — a
campaign or served cell, or ``python -m repro run`` (a one-cell grid).
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Dict, Optional

from repro import ckpt
from repro.analysis.metrics import ExperimentResult
from repro.api import Session
from repro.baselines.configs import make_strategy
from repro.hardware.cost_model import CostModel
from repro.hardware.counters import KernelCounters
from repro.obs import export_chrome_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.campaign import ExperimentSpec


def run_spec(spec: "ExperimentSpec", *,
             checkpoint_dir: Optional[str] = None,
             checkpoint_every: Optional[int] = None, resume: bool = False,
             trace: Optional[str] = None,
             record_energy: bool = False) -> ExperimentResult:
    """Run one cell in a session of its own: the one place a cell's
    session is built and stepped.

    The configuration runs on the workload, scrambled when the spec says
    so and the workload can; after ``warmup_steps`` steps (§5.2.2) the
    kernel counters, stage seconds and telemetry start over, so the
    result covers the ``steps`` measured ones.  Hooks: ``resume``
    restores the latest valid snapshot of ``checkpoint_dir`` (default
    :func:`repro.ckpt.default_checkpoint_dir`) and runs what remains, bit
    for bit the uninterrupted run; ``checkpoint_every`` snapshots there
    every N steps; ``trace`` writes the Chrome trace to that path;
    ``record_energy`` records the energy history.  An unusable directory
    raises :class:`OSError`, a snapshot that does not fit
    :class:`~repro.ckpt.SnapshotError`, before the first step.
    """
    workload = spec.build_workload()
    strategy = make_strategy(spec.configuration)
    live: Dict[str, object] = {}
    with Session.from_workload(workload, deposition=strategy) as session:
        if spec.scramble and hasattr(workload, "scramble_particles"):
            workload.scramble_particles(session)
        for _ in range(spec.warmup_steps):
            session.step()
        session.deposition_counters = KernelCounters()
        session.breakdown.reset()
        if session.telemetry.enabled:
            session.telemetry.reset()
        checkpoint_dir = checkpoint_dir or ckpt.default_checkpoint_dir()
        loaded = ckpt.latest_valid_snapshot(
            checkpoint_dir, session.telemetry) if resume else None
        if loaded is not None:
            try:
                session.restore(loaded)
            except ckpt.SnapshotError as exc:
                raise type(exc)(
                    f"cannot resume from {loaded.path}: {exc}") from exc
            live["resumed_from"] = (loaded.path, loaded.step)
        if checkpoint_every is not None:
            try:
                os.makedirs(checkpoint_dir, exist_ok=True)
                if not os.access(checkpoint_dir, os.W_OK | os.X_OK):
                    raise PermissionError(
                        f"{checkpoint_dir!r} is not writable")
            except OSError as exc:
                raise OSError(
                    f"cannot use checkpoint directory: {exc}") from exc
            session.pipeline.add_step_hook(
                ckpt.CheckpointHook(checkpoint_dir, every=checkpoint_every))

        start = time.perf_counter()
        remaining = spec.warmup_steps + spec.steps - session.step_index
        for _ in session.run(max(0, remaining), record_energy=record_energy):
            pass
        wall = time.perf_counter() - start

        live["stages"] = list(session.pipeline.stage_names())
        live["stage_seconds"] = {row["stage"]: row["seconds"]
                                 for row in session.breakdown.stage_rows()}
        if record_energy:
            live["energy_history"] = [
                {"step": r.step, "field": r.field_energy,
                 "kinetic": r.kinetic_energy}
                for r in session.energy.history]
            live["relative_energy_drift"] = \
                session.energy.relative_energy_drift()
        if session.telemetry.enabled:
            # the live registry: the wall-clock and executor series too
            live["metrics"] = session.telemetry.snapshot(deterministic=False)
        if trace:
            export_chrome_trace(session.telemetry, trace)
            live["trace_events"] = len(session.telemetry.events)

    counters = session.deposition_counters
    return ExperimentResult(
        configuration=spec.configuration,
        ppc=workload.ppc,
        shape_order=session.config.shape_order,
        num_particles=session.num_particles,
        steps=session.step_index - spec.warmup_steps,
        timing=CostModel().timing(counters),
        wall_seconds=wall,
        # the coarse stage buckets the Figure-1/8 tables are keyed on
        stage_seconds=dict(session.breakdown.seconds),
        # the deterministic counter snapshot, empty without telemetry
        metrics=(session.telemetry.snapshot()
                 if session.telemetry.enabled else {}),
        extra={"effective_flops": counters.effective_flops,
               "global_sorts": float(getattr(
                   strategy, "global_sorts_performed", 0))},
        live=live,
    )
