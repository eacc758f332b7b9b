"""Physics-health probes: energy drift, charge conservation, NaN guards.

A PIC run can go numerically wrong long before it crashes — a CFL
violation shows up as secular energy growth, a broken deposition as a
drifting total charge, an unstable solver as NaNs that silently spread.
:class:`HealthHook` watches all three as a pipeline step hook (the
:class:`~repro.ckpt.hook.CheckpointHook` pattern: fire once per
completed step, act every ``health_every`` of them):

* **NaN/Inf field guard** — any non-finite value in the six EM field
  arrays aborts immediately (:class:`PhysicsHealthError`); a non-finite
  field never recovers, so there is no warn level.
* **Energy drift** — relative total (field + kinetic) energy change
  against the first probe with a non-zero total (a cold plasma before
  the laser arrives has nothing to drift from); gauge
  ``health.energy_drift``.
* **Charge residual** — relative total macro-particle charge change
  against the first probe with a non-zero total; gauge
  ``health.charge_residual``.

Warn thresholds emit one structured :func:`repro.obs.log.log_event` per
condition per run (not per step — a drifting run would otherwise drown
the log); abort thresholds raise.  ``0.0`` disables a threshold.

Bitwise-neutrality contract: the probe only *reads* simulation state
(the frame grid, the array of record for every run) and never touches
the energy history, so a health-probed run stays bitwise identical to a
bare one.

The physics helpers are imported lazily inside the probe (the
:mod:`repro.ckpt` precedent): ``repro.obs`` loads from
:mod:`repro.config` before :mod:`repro.pic` exists.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.obs.config import ObsConfig
from repro.obs.log import log_event
from repro.obs.registry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import Session

__all__ = ["HealthHook", "PhysicsHealthError"]

logger = logging.getLogger("repro.obs.health")

#: the EM field arrays the NaN/Inf guard scans, in storage order
_EM_FIELDS = ("ex", "ey", "ez", "bx", "by", "bz")


class PhysicsHealthError(RuntimeError):
    """A physics-health abort threshold was breached."""


class HealthHook:
    """Step hook probing physics health every ``health_every`` steps.

    Attach with ``pipeline.add_step_hook(hook)``.  Thresholds and
    cadence come from the run's :class:`~repro.obs.config.ObsConfig`;
    probe results land as gauges on the supplied telemetry.
    """

    name = "health"

    reads = frozenset({
        "step_index",
        "grid.fields", "grid.geometry",
        "containers.position", "containers.momentum",
        "containers.membership",
        "executor",
        "telemetry",
    })
    writes = frozenset({"telemetry"})

    def __init__(self, config: ObsConfig, telemetry: Telemetry) -> None:
        self.config = config
        self.telemetry = telemetry
        #: totals captured by the first probe that saw a non-zero one;
        #: drift is measured against them so a restored/warm-started run
        #: re-baselines on attach
        self._baseline_energy: Optional[float] = None
        self._baseline_charge: Optional[float] = None
        self._warned_energy = False
        self._warned_charge = False

    # ------------------------------------------------------------------
    def __call__(self, session: "Session") -> None:
        if session.step_index % self.config.health_every == 0:
            self.probe(session)

    def probe(self, session: "Session") -> None:
        """Run all enabled probes against the just-completed step."""
        from repro.pic.diagnostics import total_particle_charge

        completed = session.step_index
        grid = session.grid
        telemetry = self.telemetry
        telemetry.count("health.probes")

        if self.config.nan_check:
            for name in _EM_FIELDS:
                if not np.all(np.isfinite(getattr(grid, name))):
                    raise PhysicsHealthError(
                        f"non-finite values in field {name!r} after step "
                        f"{completed}"
                    )

        field_energy = grid.field_energy()
        kinetic = sum(
            container.kinetic_energy(executor=session.executor)
            for container in session.containers
        )
        total_energy = field_energy + kinetic
        charge = sum(total_particle_charge(container)
                     for container in session.containers)

        if not self._baseline_energy:
            self._baseline_energy = total_energy
        if not self._baseline_charge:
            self._baseline_charge = charge
        drift = self._relative(total_energy, self._baseline_energy)
        residual = self._relative(charge, self._baseline_charge)
        telemetry.gauge("health.energy_drift", drift)
        telemetry.gauge("health.charge_residual", residual)

        self._check("energy drift", drift,
                    self.config.energy_drift_warn,
                    self.config.energy_drift_abort,
                    "health.energy_drift", "_warned_energy", completed)
        self._check("charge residual", residual,
                    self.config.charge_residual_warn,
                    self.config.charge_residual_abort,
                    "health.charge_residual", "_warned_charge", completed)

    # ------------------------------------------------------------------
    @staticmethod
    def _relative(value: float, baseline: float) -> float:
        # a zero baseline was taken from this very probe: nothing to
        # measure against yet
        if baseline == 0.0:
            return 0.0
        return abs(value - baseline) / abs(baseline)

    def _check(self, label: str, value: float, warn: float, abort: float,
               event: str, warned_attr: str, completed: int) -> None:
        if abort > 0.0 and value > abort:
            raise PhysicsHealthError(
                f"{label} {value:.3e} exceeds abort threshold {abort:.3e} "
                f"after step {completed}"
            )
        if warn > 0.0 and value > warn and not getattr(self, warned_attr):
            setattr(self, warned_attr, True)
            log_event(
                event,
                "%s %.3e exceeds warn threshold %.3e after step %d",
                label, value, warn, completed,
                logger=logger, obs=self.telemetry,
                value=value, threshold=warn, step=completed,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HealthHook(every={self.config.health_every})"
