"""Physics-health probes: energy drift, charge conservation, NaN guards.

A PIC run can go numerically wrong long before it crashes — a CFL
violation shows up as secular energy growth, a broken deposition as a
drifting total charge, an unstable solver as NaNs that silently spread.
:class:`HealthHook` watches all three as a pipeline step hook (the
:class:`~repro.ckpt.hook.CheckpointHook` pattern), after every completed
step:

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

A drift or residual past its warn threshold (:data:`ENERGY_DRIFT_WARN`,
:data:`CHARGE_RESIDUAL_WARN`) emits one structured
:func:`repro.obs.log.log_event` per condition per run (not per step — a
drifting run would otherwise drown the log); neither aborts.  The
thresholds are constants: a test that needs another patches them.

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
from typing import TYPE_CHECKING, Optional, Set

import numpy as np

from repro.obs.log import log_event
from repro.obs.registry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import Session

__all__ = ["HealthHook", "PhysicsHealthError"]

logger = logging.getLogger("repro.obs.health")

#: the EM field arrays the NaN/Inf guard scans, in storage order
_EM_FIELDS = ("ex", "ey", "ez", "bx", "by", "bz")

#: relative total-energy drift |E - E0| / |E0| past which to warn
ENERGY_DRIFT_WARN = 0.05
#: relative total-particle-charge change past which to warn
CHARGE_RESIDUAL_WARN = 1.0e-6


class PhysicsHealthError(RuntimeError):
    """A field went non-finite: the run cannot recover."""


class HealthHook:
    """Step hook probing physics health after every step.

    Attach with ``pipeline.add_step_hook(hook)``; probe results land as
    gauges on the supplied telemetry.
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

    def __init__(self, telemetry: Telemetry) -> None:
        self.telemetry = telemetry
        #: totals captured by the first probe that saw a non-zero one;
        #: drift is measured against them so a restored/warm-started run
        #: re-baselines on attach
        self._baseline_energy: Optional[float] = None
        self._baseline_charge: Optional[float] = None
        #: the events already warned about (once per run each)
        self._warned: Set[str] = set()

    # ------------------------------------------------------------------
    def __call__(self, session: "Session") -> None:
        """Run the probes against the just-completed step."""
        from repro.pic.diagnostics import total_particle_charge

        completed = session.step_index
        grid = session.grid
        telemetry = self.telemetry
        telemetry.count("health.probes")

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

        self._check("energy drift", drift, ENERGY_DRIFT_WARN,
                    "health.energy_drift", completed)
        self._check("charge residual", residual, CHARGE_RESIDUAL_WARN,
                    "health.charge_residual", completed)

    # ------------------------------------------------------------------
    @staticmethod
    def _relative(value: float, baseline: float) -> float:
        # a zero baseline was taken from this very probe: nothing to
        # measure against yet
        if baseline == 0.0:
            return 0.0
        return abs(value - baseline) / abs(baseline)

    def _check(self, label: str, value: float, warn: float, event: str,
               completed: int) -> None:
        if value > warn and event not in self._warned:
            self._warned.add(event)
            log_event(
                event,
                "%s %.3e exceeds warn threshold %.3e after step %d",
                label, value, warn, completed,
                logger=logger, obs=self.telemetry,
                value=value, threshold=warn, step=completed,
            )
