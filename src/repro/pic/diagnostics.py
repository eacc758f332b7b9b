"""Simulation diagnostics: energies, conservation checks, stage breakdowns.

The :class:`RuntimeBreakdown` class records how long each stage of the PIC
loop takes per step; it backs the Figure-1 reproduction (runtime breakdown
of a uniform-plasma run) and the normalised breakdown panel of Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.obs.registry import MetricSet
from repro.pic.grid import Grid
from repro.pic.particles import ParticleContainer

#: Stage names used by the simulation loop, in execution order.
STAGES = (
    "field_gather_push",
    "boundary_redistribute",
    "current_deposition",
    "field_solve",
    "other",
)


#: metric-name prefixes the breakdown stores its seconds under
_BUCKET_PREFIX = "time.bucket."
_STAGE_PREFIX = "time.stage."


class RuntimeBreakdown:
    """Accumulates wall-clock seconds per PIC stage.

    The breakdown is a *view over a metric registry*
    (:class:`repro.obs.MetricSet`): every credited second lands under
    ``time.bucket.<bucket>`` and ``time.stage.<stage>``, and the two
    historical dict attributes are read-only projections of those
    prefixes.  When a run observes (``ObsConfig.enabled``) the
    simulation passes the active telemetry's metric set in, so the
    breakdown and the exported metrics are one store; otherwise the
    breakdown owns a private set and behaves exactly as before.

    Two granularities, kept in lockstep by the single recording path
    :meth:`record_stage`:

    * ``seconds`` — the coarse *buckets* of :data:`STAGES`, the
      historical Figure-1 categories every table/figure formatter
      consumes.  Every second recorded lands in exactly one bucket.
    * ``stage_seconds`` — the fine-grained pipeline stages
      (:mod:`repro.pipeline`), one entry per
      :class:`~repro.pipeline.Stage` name, filled by the pipeline's
      post-stage timing hook.  A bucket's value is the sum of its
      stages' values.

    ``executor_name`` records which tile execution backend
    (:mod:`repro.exec`) produced the timings, and ``kernel_tier`` which
    kernel tier (:mod:`repro.backend`) ran the stencil primitives, so
    scaling studies can label their breakdowns.
    """

    def __init__(self, executor_name: str = "serial",
                 kernel_tier: str = "oracle",
                 metrics: Optional[MetricSet] = None) -> None:
        #: the backing metric registry (shared with the telemetry when
        #: observability is on, private otherwise)
        self.metrics = metrics if metrics is not None else MetricSet()
        self.steps = 0
        self.executor_name = executor_name
        self.kernel_tier = kernel_tier

    # ------------------------------------------------------------------
    # the one recording path
    # ------------------------------------------------------------------
    def record_stage(self, stage: str, bucket: str, seconds: float) -> None:
        """Credit ``seconds`` to one pipeline stage *and* its coarse bucket.

        Called by the pipeline's post-stage hook: ``stage`` is the
        pipeline stage name (``gather_push``, ``migrate``, ...), ``bucket``
        the :data:`STAGES` category it rolls up into.
        """
        seconds = float(seconds)
        self.metrics.add(_BUCKET_PREFIX + bucket, seconds)
        self.metrics.add(_STAGE_PREFIX + stage, seconds)

    def finish_step(self) -> None:
        """Mark the end of one simulation step."""
        self.steps += 1

    def reset(self) -> None:
        """Discard every recorded second and the step count.

        Clears only the ``time.*`` prefix, so a shared telemetry metric
        set keeps its non-timing counters.  Experiment runners call this
        after their warm-up steps so the reported stage breakdown covers
        exactly the measured steps, in lockstep with the kernel counters
        they reset at the same point.
        """
        self.metrics.clear_prefix("time.")
        self.steps = 0

    # ------------------------------------------------------------------
    # read-only projections
    # ------------------------------------------------------------------
    @property
    def seconds(self) -> Dict[str, float]:
        """Coarse bucket seconds: ``{bucket: seconds}`` (detached copy)."""
        return self.metrics.namespace(_BUCKET_PREFIX)

    @property
    def stage_seconds(self) -> Dict[str, float]:
        """Per-pipeline-stage seconds: ``{stage: seconds}`` (detached copy)."""
        return self.metrics.namespace(_STAGE_PREFIX)

    @property
    def total(self) -> float:
        """Total recorded seconds across all buckets."""
        return sum(self.seconds.values())

    def fractions(self) -> Dict[str, float]:
        """Per-bucket fraction of the total runtime."""
        seconds = self.seconds
        total = sum(seconds.values())
        if total <= 0.0:
            return {stage: 0.0 for stage in seconds}
        return {stage: s / total for stage, s in seconds.items()}

    def as_rows(self) -> List[Dict[str, float]]:
        """Table rows (stage, seconds, fraction) sorted by execution order."""
        seconds = self.seconds
        fractions = self.fractions()
        ordered = [s for s in STAGES if s in seconds]
        ordered += [s for s in seconds if s not in STAGES]
        return [
            {"stage": stage, "seconds": seconds[stage],
             "fraction": fractions.get(stage, 0.0)}
            for stage in ordered
        ]

    def stage_rows(self) -> List[Dict[str, float]]:
        """Fine-grained pipeline-stage rows, in first-recorded order."""
        stage_seconds = self.stage_seconds
        total = sum(stage_seconds.values())
        return [
            {"stage": stage, "seconds": seconds,
             "fraction": (seconds / total if total > 0.0 else 0.0)}
            for stage, seconds in stage_seconds.items()
        ]


@dataclass
class EnergyRecord:
    """Snapshot of the system energies at one step."""

    step: int
    field_energy: float
    kinetic_energy: float

    @property
    def total(self) -> float:
        """Total (field + kinetic) energy."""
        return self.field_energy + self.kinetic_energy


@dataclass
class EnergyDiagnostic:
    """Tracks the energy history of a simulation."""

    history: List[EnergyRecord] = field(default_factory=list)

    def record(self, step: int, grid: Grid,
               containers: List[ParticleContainer],
               executor=None) -> EnergyRecord:
        """Record energies at the given step and return the snapshot.

        ``executor`` shards the per-tile kinetic-energy sums over the tile
        execution engine (:mod:`repro.exec`); the per-container reduction
        order stays fixed either way.
        """
        kinetic = sum(c.kinetic_energy(executor=executor) for c in containers)
        snapshot = EnergyRecord(step=step, field_energy=grid.field_energy(),
                                kinetic_energy=kinetic)
        self.history.append(snapshot)
        return snapshot

    def relative_energy_drift(self) -> float:
        """|E_final - E_initial| / E_initial over the recorded history."""
        if len(self.history) < 2:
            return 0.0
        first, last = self.history[0].total, self.history[-1].total
        if first == 0.0:
            return 0.0 if last == 0.0 else float("inf")
        return abs(last - first) / abs(first)


def total_deposited_charge(grid: Grid) -> float:
    """Volume integral of the node-centred charge density."""
    return float(grid.rho.sum() * np.prod(grid.cell_size))


def total_particle_charge(container: ParticleContainer) -> float:
    """Sum of macro-particle charges of a container."""
    total = 0.0
    for tile in container.iter_tiles():
        if tile.num_particles:
            total += float(tile.w.sum()) * container.charge
    return total


def current_residual(grid_a: Grid, grid_b: Grid) -> float:
    """Maximum absolute difference between the currents of two grids.

    Used by the equivalence tests: every deposition kernel must reproduce
    the reference kernel's grid current to round-off.
    """
    return float(
        max(
            np.max(np.abs(grid_a.jx - grid_b.jx), initial=0.0),
            np.max(np.abs(grid_a.jy - grid_b.jy), initial=0.0),
            np.max(np.abs(grid_a.jz - grid_b.jz), initial=0.0),
        )
    )
