"""Frozen observability configuration (:class:`ObsConfig`).

A small frozen dataclass that travels inside :class:`repro.config.SimulationConfig`
(field ``observe``), is accepted by ``Session(observe=...)`` and is
normalised out of every identity that must not depend on telemetry —
checkpoint fingerprints (:data:`repro.ckpt.session._FINGERPRINT_EXCLUDE`)
and campaign cache keys (:meth:`repro.analysis.campaign.ExperimentSpec.
cache_key`) — because telemetry never changes simulation results: a
traced run is bitwise identical to an untraced one.

Three independent layers hang off the flags:

* ``enabled`` — the master switch.  Off (the default) installs the
  shared null telemetry: every counter/span call is a single attribute
  check and the registry stays empty.
* ``trace`` — record spans and structured events (exportable as JSONL
  and Chrome ``trace_event`` JSON, see :mod:`repro.obs.trace`).
  Counters are always on when ``enabled``; tracing adds the timeline.
* ``health`` — per-step physics-health probes (energy drift, charge
  conservation, NaN/Inf field guards) with the warn/abort thresholds
  below (:mod:`repro.obs.health`).

Setting ``trace`` or ``health`` implies ``enabled``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ObsConfig"]


@dataclass(frozen=True)
class ObsConfig:
    """Observability selection for one run.

    Parameters
    ----------
    enabled:
        Master switch; ``False`` (default) selects the shared null
        telemetry with near-zero overhead.
    trace:
        Record spans (run -> step -> stage -> shard batch) and
        structured events for export (implies ``enabled``).
    health:
        Run the physics-health probes every ``health_every`` steps
        (implies ``enabled``).
    energy_drift_warn, energy_drift_abort:
        Relative total-energy drift |E - E0| / |E0| thresholds.  A
        breach of ``warn`` emits a structured warning event; a breach
        of ``abort`` raises :class:`repro.obs.health.PhysicsHealthError`.
        ``0.0`` disables the respective threshold.
    charge_residual_warn, charge_residual_abort:
        Relative total-particle-charge change thresholds, same
        semantics as the energy pair.
    nan_check:
        Guard the EM field arrays against NaN/Inf every probe (always
        aborts on a hit — a non-finite field never recovers).
    health_every:
        Probe cadence in completed steps (default: every step).
    """

    enabled: bool = False
    trace: bool = False
    health: bool = False
    energy_drift_warn: float = 0.05
    energy_drift_abort: float = 0.0
    charge_residual_warn: float = 1.0e-6
    charge_residual_abort: float = 0.0
    nan_check: bool = True
    health_every: int = 1

    def __post_init__(self) -> None:
        for name in ("energy_drift_warn", "energy_drift_abort",
                     "charge_residual_warn", "charge_residual_abort"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative, "
                                 f"got {getattr(self, name)}")
        if int(self.health_every) < 1:
            raise ValueError(
                f"health_every must be >= 1, got {self.health_every}")
        object.__setattr__(self, "health_every", int(self.health_every))
        if (self.trace or self.health) and not self.enabled:
            object.__setattr__(self, "enabled", True)
