"""Kernel names, tier requests and the kernel-tier selection config.

This module is the dependency root of :mod:`repro.backend`: it imports
nothing from the rest of the library (mirroring ``repro.exec.base``), so
:mod:`repro.config` can embed :class:`BackendConfig` without a cycle.

Bulk array math, scratch allocation and the dtype policy (FP64
field/current arrays, ``int64`` flat stencil indices) are plain NumPy at
the call sites; the one extension point of the numerical layer is the
per-kernel tier registry (:class:`~repro.backend.registry.KernelRegistry`),
where a tier accelerates exactly the kernels it has and inherits the
oracle for the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Annotation alias for the dense arrays the numerical layers exchange.
Array = np.ndarray

#: Kernel names understood by the registry, in dispatch order of one PIC
#: step.  ``scatter3`` is the fully fused three-component (jx, jy, jz)
#: form of ``scatter`` used by the current deposition hot loop.
KERNEL_NAMES = ("build_weights", "scatter", "scatter3")

#: Kernel-tier requests understood by :class:`BackendConfig`.  ``auto``
#: resolves to the best *available* registered tier when a run resolves it;
#: the concrete names select one tier explicitly (and raise when its
#: dependency is missing).
TIER_AUTO = "auto"
TIER_ORACLE = "oracle"
TIER_FUSED = "fused"
KNOWN_TIER_REQUESTS = (TIER_AUTO, TIER_ORACLE, TIER_FUSED)


@dataclass(frozen=True)
class BackendConfig:
    """Kernel-tier selection for one simulation.

    Parameters
    ----------
    kernel_tier:
        ``"auto"`` (default) picks the best available registered kernel
        tier — the numba-fused tier when numba imports, silently falling
        back to the NumPy oracle otherwise (logged once).  ``"oracle"``
        and ``"fused"`` select a tier explicitly; an explicit tier whose
        dependency is missing raises at resolution instead of falling
        back.

    Tier names other than the built-ins are accepted so user-registered
    tiers can be selected; unknown names fail at resolution time
    (:func:`repro.backend.activate`), when the registry contents are
    known.
    """

    kernel_tier: str = TIER_AUTO

    def __post_init__(self) -> None:
        if not self.kernel_tier or not isinstance(self.kernel_tier, str):
            raise ValueError(
                f"kernel_tier must be a non-empty string, "
                f"got {self.kernel_tier!r}"
            )
