"""The telemetry registry of one run: metrics, events, spans.

One :class:`Telemetry` object is the spine every subsystem of a run
reports into: counters and gauges land in its :class:`MetricSet`, spans
and structured log events in its ordered event list.  A registry is
*handed* to whoever records into it — the
:class:`~repro.api.Session` builds one from its
``config.observe`` and passes it to its executor and halo exchange, a
campaign or the job service passes its own to its pool, journal and
caches — and nothing in this module remembers a "current" one, so a
traced run and an untraced one in the same process never mix::

    HaloExchange(decomposition, periodic, obs=session.telemetry)

A handle parameter defaults to :data:`NULL_TELEMETRY`, the shared
disabled registry: recording into it is a single flag check.

Determinism contract
--------------------
Telemetry content is deterministic: for a fixed configuration the event
*sequence* (types, names, categories, arguments) and every counter value
are bitwise reproducible across runs — only the ``ts`` timestamps vary.
:meth:`Telemetry.event_sequence` and :meth:`Telemetry.snapshot` expose
exactly the reproducible projections, and the parity tests pin them.

Counter-name vocabulary (dotted, lowercase):

================================  ====================================
``particles.pushed``              particles advanced by gather+push
``particles.migrated``            particles that changed tile
``tiles.deposited``               tiles scanned by current deposition
``stage.<name>.calls``            pipeline-stage invocations
``domain.halo_exchanges``         halo ghost-ring refreshes
``exec.shard_tasks``              tile tasks shipped to shard workers
``exec.shard_batches``            shard batches executed
``exec.pool_rebuilds``            worker pools retired after deaths
``campaign.cells`` / ``.cache.hits`` / ``.cache.misses``
                                  campaign accounting
``serve.jobs.accepted`` / ``.completed`` / ``.failed``
                                  campaign-service job lifecycle
``serve.cells.computed`` / ``.cache_hits`` / ``.inflight_hits`` /
``.memo_hits``
                                  per-cell dedup provenance (repro.serve)
``serve.tenant.evictions`` / ``.evicted_bytes``
                                  tenant cache-budget LRU reclamation
``ckpt.saves`` / ``.restores`` / ``.bytes``
                                  checkpoint traffic
``faults.injected``               faults the test double injected
                                  (``tests/faults.py``)
``health.energy_drift`` / ``health.charge_residual``
                                  latest probe gauges
``log.<event>``                   structured log events by name
``time.bucket.<b>`` / ``time.stage.<s>``
                                  wall-clock seconds (RuntimeBreakdown)
================================  ====================================

``time.*`` is wall-clock and ``exec.* / log.* / campaign.* /
serve.*`` depend on the execution environment (pool
availability, warm caches, dedup traffic), so
:meth:`Telemetry.snapshot` excludes them from its deterministic
projection; everything else must reproduce bitwise.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.config import ObsConfig

__all__ = [
    "MetricSet",
    "NULL_TELEMETRY",
    "Telemetry",
]

#: counter-name prefixes excluded from the deterministic snapshot:
#: wall-clock seconds and environment-dependent accounting (pool
#: availability, cache warmth, dedup traffic, once-per-process log
#: notices)
_NONDETERMINISTIC_PREFIXES = ("time.", "exec.", "log.", "campaign.",
                              "serve.")


class MetricSet:
    """A flat, insertion-ordered ``name -> float`` metric store.

    Counters are plain float accumulators (integral counts stay exact up
    to 2**53), gauges overwrite.  The flat dotted namespace keeps
    registration declarative — the first ``add``/``set`` *is* the
    registration — and makes prefix views (:meth:`namespace`) cheap.
    """

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: Dict[str, float] = {}

    def add(self, name: str, value: float = 1.0) -> None:
        """Accumulate ``value`` onto the counter ``name``."""
        self._values[name] = self._values.get(name, 0.0) + float(value)

    def set(self, name: str, value: float) -> None:
        """Overwrite the gauge ``name`` with ``value``."""
        self._values[name] = float(value)

    def get(self, name: str, default: float = 0.0) -> float:
        return self._values.get(name, default)

    def namespace(self, prefix: str) -> Dict[str, float]:
        """``{suffix: value}`` of every metric under ``prefix``."""
        return {name[len(prefix):]: value
                for name, value in self._values.items()
                if name.startswith(prefix)}

    def as_dict(self) -> Dict[str, float]:
        """All metrics, sorted by name (a detached copy)."""
        return {name: self._values[name] for name in sorted(self._values)}

    def clear(self) -> None:
        self._values.clear()

    def clear_prefix(self, prefix: str) -> None:
        """Drop every metric under ``prefix``."""
        for name in [n for n in self._values if n.startswith(prefix)]:
            del self._values[name]

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricSet({len(self._values)} metrics)"


class _NullSpan:
    """Shared no-op context manager for disabled spans."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Telemetry:
    """One run's metric registry plus (optionally) its event timeline.

    ``count``/``gauge`` are live whenever ``enabled``; spans and
    structured events additionally require ``config.trace``.  Every
    recording method starts with a single flag check, so a disabled
    telemetry adds one attribute test per call site and nothing else.
    """

    __slots__ = ("config", "enabled", "metrics", "events")

    def __init__(self, config: Optional[ObsConfig] = None) -> None:
        self.config = config if config is not None else ObsConfig()
        self.enabled = self.config.enabled
        self.metrics = MetricSet()
        #: ordered event dicts: {"type": "B"|"E"|"C"|"I", "name", "cat",
        #: "args", "ts"} — ``ts`` is perf_counter seconds (the one
        #: non-deterministic field; every export keeps it separable)
        self.events: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # counters and gauges
    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1.0) -> None:
        """Accumulate a counter (no-op when disabled)."""
        if not self.enabled:
            return
        self.metrics.add(name, value)

    def gauge(self, name: str, value: float) -> None:
        """Overwrite a gauge (no-op when disabled)."""
        if not self.enabled:
            return
        self.metrics.set(name, value)

    # ------------------------------------------------------------------
    # spans and events
    # ------------------------------------------------------------------
    @property
    def tracing(self) -> bool:
        """True when spans/events are being recorded."""
        return self.enabled and self.config.trace

    def begin_span(self, name: str, cat: str = "obs",
                   args: Optional[Dict[str, Any]] = None) -> None:
        if not self.tracing:
            return
        self.events.append({"type": "B", "name": name, "cat": cat,
                            "args": args, "ts": time.perf_counter()})

    def end_span(self, name: str) -> None:
        if not self.tracing:
            return
        self.events.append({"type": "E", "name": name, "cat": None,
                            "args": None, "ts": time.perf_counter()})

    def span(self, name: str, cat: str = "obs",
             args: Optional[Dict[str, Any]] = None):
        """Context manager timing a region as a span (no-op when off)."""
        if not self.tracing:
            return _NULL_SPAN
        return self._span(name, cat, args)

    @contextmanager
    def _span(self, name: str, cat: str,
              args: Optional[Dict[str, Any]]) -> Iterator[None]:
        self.begin_span(name, cat, args)
        try:
            yield
        finally:
            self.end_span(name)

    def counter_event(self, name: str, values: Dict[str, float]) -> None:
        """Record a Chrome-trace counter sample (``ph: "C"``)."""
        if not self.tracing:
            return
        self.events.append({"type": "C", "name": name, "cat": "counters",
                            "args": dict(values),
                            "ts": time.perf_counter()})

    def instant(self, name: str, cat: str = "obs",
                args: Optional[Dict[str, Any]] = None) -> None:
        """Record a point-in-time event (``ph: "i"``)."""
        if not self.tracing:
            return
        self.events.append({"type": "I", "name": name, "cat": cat,
                            "args": args, "ts": time.perf_counter()})

    def log(self, name: str, message: str,
            fields: Optional[Dict[str, Any]] = None) -> None:
        """Record a structured log event and bump its ``log.<name>``
        counter (used by :mod:`repro.obs.log`)."""
        if not self.enabled:
            return
        self.metrics.add(f"log.{name}")
        if self.config.trace:
            args: Dict[str, Any] = {"message": message}
            if fields:
                args.update(fields)
            self.events.append({"type": "I", "name": f"log.{name}",
                                "cat": "log", "args": args,
                                "ts": time.perf_counter()})

    # ------------------------------------------------------------------
    # deterministic projections
    # ------------------------------------------------------------------
    def snapshot(self, deterministic: bool = True) -> Dict[str, float]:
        """Sorted ``name -> value`` copy of the metric registry.

        With ``deterministic`` (the default) the wall-clock (``time.*``)
        and environment-dependent (``exec.*``, ``log.*``, ``campaign.*``,
        ``serve.*``) metrics are excluded: the remainder must be
        bitwise identical
        across runs of the same configuration and is what campaign
        results embed (:class:`repro.analysis.metrics.ExperimentResult`).
        """
        values = self.metrics.as_dict()
        if not deterministic:
            return values
        return {name: value for name, value in values.items()
                if not name.startswith(_NONDETERMINISTIC_PREFIXES)}

    def event_sequence(self) -> List[Tuple[str, str]]:
        """The timestamp-free ``(type, name)`` event order.

        Deterministic for a fixed configuration; the parity test pins
        two traced runs to the identical sequence.
        """
        return [(event["type"], event["name"]) for event in self.events]

    def reset(self) -> None:
        """Discard every metric and event (keeps the configuration).

        Experiment runners call this after warm-up, in lockstep with
        ``RuntimeBreakdown.reset`` and the kernel-counter reset, so the
        reported telemetry covers exactly the measured steps.
        """
        self.metrics.clear()
        self.events.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return (f"Telemetry({state}, {len(self.metrics)} metrics, "
                f"{len(self.events)} events)")


#: the shared disabled registry: the default value of every ``obs``
#: handle parameter, and what an unobserved run records into (asserted
#: empty by the disabled-path tests)
NULL_TELEMETRY = Telemetry(ObsConfig())
