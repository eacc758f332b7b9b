"""The kernel-tier stamp of a benchmark record.

The library has one scatter path, the NumPy one of
:mod:`repro.pic.stencil`; no module under ``src/`` imports this one.
It is kept for the benchmark harness, whose environment stamp records
``activate(BackendConfig()).kernel_tier``, until that field is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BackendConfig", "activate"]


@dataclass(frozen=True)
class BackendConfig:
    """The one kernel tier there is."""

    kernel_tier: str = "oracle"


def activate(config: BackendConfig) -> BackendConfig:
    """``config`` itself: a record stamp reads its ``kernel_tier``."""
    return config
