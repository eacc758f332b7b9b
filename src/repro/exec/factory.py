"""Construct a tile executor from an :class:`repro.config.ExecutionConfig`."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exec.base import (
    BACKEND_SERIAL,
    BACKEND_THREADS,
    TileExecutor,
)
from repro.exec.serial import SerialExecutor
from repro.exec.threaded import ThreadTileExecutor

from repro.obs.registry import NULL_TELEMETRY, Telemetry

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import ExecutionConfig

_BACKENDS = {
    BACKEND_SERIAL: SerialExecutor,
    BACKEND_THREADS: ThreadTileExecutor,
}


def create_executor(config: "ExecutionConfig | None" = None,
                    obs: Telemetry = NULL_TELEMETRY) -> TileExecutor:
    """The executor selected by ``config`` (default: 1-shard serial),
    recording its ``exec.*`` accounting into the owning run's ``obs``."""
    if config is None:
        return SerialExecutor(1, obs)
    try:
        cls = _BACKENDS[config.backend]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {config.backend!r}; "
            f"expected one of {tuple(_BACKENDS)}"
        ) from None
    return cls(config.num_shards, obs)
