"""``repro.obs`` — unified tracing, metrics and physics-health telemetry.

One spine for every runtime signal the library emits:

* :class:`Telemetry` (:mod:`repro.obs.registry`) — one run's registry
  of counters/gauges (:class:`MetricSet`) and span/instant events,
  built from a frozen :class:`ObsConfig` (``Session(observe=...)``,
  ``--trace``/``--metrics`` on the CLIs) and passed as ``obs=`` to
  everything that records into it;
* :class:`TracingHook` (:mod:`repro.obs.hooks`) — pipeline-hook-seam
  instrumentation producing the always-on pipeline counters and the
  per-step counter sample (the run → step → stage spans are opened and
  closed by the session and its pipeline);
* :class:`HealthHook` (:mod:`repro.obs.health`) — per-step energy-drift,
  charge-conservation probes that warn and a NaN/Inf probe that aborts;
* :mod:`repro.obs.trace` — Chrome ``trace_event`` export
  (Perfetto-loadable), schema validation and the ``python -m repro
  trace summarize`` folder;
* :func:`log_event` (:mod:`repro.obs.log`) — the structured-logging
  bridge that mirrors module-logger notices as machine-readable events
  into the ``obs=`` handle it is given.

Telemetry content is deterministic (event sequence and counter values
bitwise-reproducible at fixed configuration; only timestamps vary),
disabled-mode overhead is a single flag check per site, and traced runs
are bitwise identical to untraced runs — pinned by ``tests/test_obs.py``.
"""

from repro.obs.config import ObsConfig
from repro.obs.health import HealthHook, PhysicsHealthError
from repro.obs.hooks import TracingHook
from repro.obs.log import log_event
from repro.obs.registry import MetricSet, Telemetry
from repro.obs.trace import (
    TRACE_SCHEMA,
    chrome_trace_events,
    export_chrome_trace,
    load_trace_events,
    summarize_trace,
    validate_chrome_trace,
)

__all__ = [
    "HealthHook",
    "MetricSet",
    "ObsConfig",
    "PhysicsHealthError",
    "TRACE_SCHEMA",
    "Telemetry",
    "TracingHook",
    "chrome_trace_events",
    "export_chrome_trace",
    "load_trace_events",
    "log_event",
    "summarize_trace",
    "validate_chrome_trace",
]
