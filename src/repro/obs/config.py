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
* ``trace`` — record spans and structured events (exportable as
  Chrome ``trace_event`` JSON, see :mod:`repro.obs.trace`).
  Counters are always on when ``enabled``; tracing adds the timeline.
* ``health`` — per-step physics-health probes (energy drift, charge
  conservation, NaN/Inf field guards; :mod:`repro.obs.health`, whose
  module constants are the thresholds).

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
        Run the physics-health probes after every step (implies
        ``enabled``).
    """

    enabled: bool = False
    trace: bool = False
    health: bool = False

    def __post_init__(self) -> None:
        if (self.trace or self.health) and not self.enabled:
            object.__setattr__(self, "enabled", True)
