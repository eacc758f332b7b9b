"""Simulation diagnostics: energies, conservation checks, stage breakdowns.

The :class:`RuntimeBreakdown` class records how long each stage of the PIC
loop takes per step; it backs the Figure-1 reproduction (runtime breakdown
of a uniform-plasma run) and the normalised breakdown panel of Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.registry import MetricSet
from repro.pic.grid import Grid
from repro.pic.particles import ParticleContainer

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

    * ``seconds`` — the coarse *buckets* named by the stages'
      ``bucket`` attribute (:class:`~repro.pipeline.Stage`), the
      historical Figure-1 categories every table/figure formatter
      consumes.  Every second recorded lands in exactly one bucket.
    * ``stage_seconds`` — the fine-grained pipeline stages
      (:mod:`repro.pipeline`), one entry per
      :class:`~repro.pipeline.Stage` name, filled by the pipeline's
      post-stage timing hook.  A bucket's value is the sum of its
      stages' values.
    """

    def __init__(self, metrics: Optional[MetricSet] = None) -> None:
        #: the backing metric registry (shared with the telemetry when
        #: observability is on, private otherwise)
        self.metrics = metrics if metrics is not None else MetricSet()
        self.steps = 0

    # ------------------------------------------------------------------
    # the one recording path
    # ------------------------------------------------------------------
    def record_stage(self, stage: str, bucket: str, seconds: float) -> None:
        """Credit ``seconds`` to one pipeline stage *and* its coarse bucket.

        Called by the pipeline's post-stage hook: ``stage`` is the
        pipeline stage name (``gather_push``, ``migrate``, ...), ``bucket``
        the stage's ``bucket`` attribute, the category it rolls up into.
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
        """|E_final - E_0| / |E_0| over the recorded history.

        ``E_0`` is the first recorded non-zero total, as the health probe
        (:mod:`repro.obs.health`) measures it: a cold plasma before the
        laser arrives has nothing to drift from.  0 until there is one.
        """
        first = next((r.total for r in self.history if r.total != 0.0), None)
        if first is None:
            return 0.0
        return abs(self.history[-1].total - first) / abs(first)


def total_particle_charge(container: ParticleContainer) -> float:
    """Sum of macro-particle charges of a container."""
    total = 0.0
    for tile in container.iter_tiles():
        if tile.num_particles:
            total += float(tile.w.sum()) * container.charge
    return total
