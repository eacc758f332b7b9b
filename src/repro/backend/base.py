"""Tier requests and the kernel-tier selection config.

This module is the dependency root of :mod:`repro.backend`: it imports
nothing from the rest of the library (mirroring ``repro.exec.base``), so
:mod:`repro.config` can embed :class:`BackendConfig` without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

#: Annotation alias for the dense arrays the numerical layers exchange.
Array = np.ndarray

#: The kernel-tier request that names no tier: it resolves to the best
#: *available* one when a run resolves it.  Every other request is a row
#: name of ``repro.backend.KERNEL_TIERS``, selected explicitly (and
#: raising when its dependency is missing).
TIER_AUTO = "auto"


@dataclass(frozen=True)
class BackendConfig:
    """Kernel-tier selection for one simulation.

    Parameters
    ----------
    kernel_tier:
        ``"auto"`` (default) picks the best available kernel tier — the
        numba-fused tier when numba imports, silently falling back to
        the NumPy oracle otherwise.  ``"oracle"`` and ``"fused"`` select
        a tier explicitly; an explicit tier whose dependency is missing
        raises at resolution instead of falling back.

    The name is checked against the tier table at resolution time
    (:func:`repro.backend.activate`), not here: this module cannot
    import the table.
    """

    kernel_tier: str = TIER_AUTO

    def __post_init__(self) -> None:
        if not self.kernel_tier or not isinstance(self.kernel_tier, str):
            raise ValueError(
                f"kernel_tier must be a non-empty string, "
                f"got {self.kernel_tier!r}"
            )

    @classmethod
    def coerce(cls, value: Union["BackendConfig", str, None]
               ) -> "BackendConfig":
        """A backend request as a config: a :class:`BackendConfig`, a
        bare kernel-tier name, or ``None`` for the defaults."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(kernel_tier=value)
        raise TypeError(
            f"expected a BackendConfig, a kernel-tier name or None, "
            f"got {value!r}"
        )
