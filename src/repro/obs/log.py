"""Structured logging bridge: one notice, two audiences.

The repo's operational notices — kernel-tier fallback, process-pool
degrade, corrupt-snapshot skip, malformed progress records — predate the
telemetry layer and were scattered plain ``logging`` calls: readable by
humans, invisible to machines.  :func:`log_event` routes each of them
through one seam that emits **both**:

* the human message, on the *original module logger* with the original
  level and lazy ``%``-formatting — so ``caplog`` filters, logger-name
  based handler config and message text all behave exactly as before;
* a machine-readable event into the caller's telemetry handle
  (``obs=``): a ``log.<name>`` counter always, plus a structured instant
  event (name, rendered message, caller-supplied fields) when tracing is
  on.  A caller with no handle only logs.

Event names are short dotted slugs naming the *condition*, not the
module — ``pool.rebuild``, ``pool.degraded``, ``ckpt.snapshot_skipped``,
``tier.fallback`` — so a trace or metric query finds every occurrence
regardless of which subsystem raised it.
"""

from __future__ import annotations

import logging
from typing import Any, Optional

from repro.obs.registry import NULL_TELEMETRY, Telemetry

__all__ = ["log_event"]

_FALLBACK_LOGGER = logging.getLogger("repro.obs")


def log_event(name: str, message: str, *args: Any,
              logger: Optional[logging.Logger] = None,
              level: int = logging.WARNING,
              obs: Telemetry = NULL_TELEMETRY,
              **fields: Any) -> None:
    """Emit a human log line and mirror it as a structured event.

    Parameters
    ----------
    name:
        Dotted event slug (``pool.rebuild``); becomes the ``log.<name>``
        counter and the trace-event name.
    message, *args:
        Passed to the module logger verbatim (lazy ``%``-formatting, so
        the call costs nothing when the level is filtered out).
    logger:
        The *original* module logger to emit the human line on; keeping
        it preserves logger-name based filtering and test expectations.
        Defaults to the ``repro.obs`` logger.
    level:
        Logging level for the human line (default ``WARNING``).
    obs:
        The registry that mirrors the event (default: none does).
    **fields:
        Extra structured payload attached to the trace event.
    """
    log = logger if logger is not None else _FALLBACK_LOGGER
    log.log(level, message, *args)
    if not obs.enabled:
        return
    try:
        rendered = message % args if args else message
    except (TypeError, ValueError):  # pragma: no cover - defensive
        rendered = message
    obs.log(name, rendered, fields or None)
