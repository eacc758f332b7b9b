"""The kernel-tier table behind the stencil primitive, and the rule that
picks a row.

The numerical layers of the library — the flat-index stencil engine,
the field gather, the FDTD solver — are plain NumPy except for one
seam defined here: the kernels ``build_weights`` / ``scatter`` /
``scatter3`` are called through one row of :data:`KERNEL_TIERS`, an
:class:`ActiveKernels`.  The table has two rows: the NumPy flat-index
path (``"oracle"`` — the historical code, kept verbatim as the
correctness reference) and an optional numba-compiled fused
build+scatter tier (``"fused"``).

The tier is a property of the machine, not of a run.  The two rows are
**bitwise identical** (pinned by ``tests/test_stencil.py``; the field
gather — BLAS block products per step, the shared ``einsum`` adjoint
otherwise — has no row here, so it cannot tell them apart), so a tier
never changes a result: like telemetry, it stays out of campaign cache
keys and snapshot fingerprints.  The library calls :func:`activate`
with no argument, and its rule is:

1. the ``REPRO_KERNEL_TIER`` environment variable, if set — strictly:
   an unknown tier, or one that cannot run here, is a ``ValueError``
   (this is how the CI ``[jit]`` leg forces the fused tier);
2. otherwise the best available tier: ``fused`` when numba imports,
   ``oracle`` otherwise — a no-numba environment runs the oracle with
   zero ceremony (the failed import is noted once on the
   ``repro.backend`` logger, where it happens:
   :mod:`repro.backend.kernels_numba`).

:func:`activate` is a pure function of its argument, the installed
packages and the environment; it installs nothing.  A
:class:`~repro.api.Session` carries the row it resolved on its grid
(``grid.kernels``), so two runs in one process do not see each other.
An explicit request — a row name, or a :class:`BackendConfig` — is for
code that compares rows side by side (tests, ``benchmarks/``) and is
taken strictly too.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

from repro.backend import kernels_numba, kernels_oracle
from repro.backend.base import Array

__all__ = [
    "ActiveKernels",
    "Array",
    "BackendConfig",
    "KERNEL_TIER_ENV",
    "KERNEL_TIERS",
    "activate",
]

#: Environment variable that selects the tier strictly; set by the CI
#: optional-deps leg to force the fused tier.
KERNEL_TIER_ENV = "REPRO_KERNEL_TIER"

#: The request that names no tier: the environment's, else the best
#: available one.
TIER_AUTO = "auto"


@dataclass(frozen=True)
class ActiveKernels:
    """One tier: its name and kernel dispatch table.

    ``scatter3`` is ``None`` for a tier without a fused three-component
    deposit (callers use the stencil path instead).
    """

    #: the tier's name, as records and the CLI report it
    kernel_tier: str
    build_weights: Callable
    scatter: Callable
    scatter3: Optional[Callable]


@dataclass(frozen=True)
class BackendConfig:
    """An explicit kernel-tier request for :func:`activate`.

    ``kernel_tier`` is a row name of :data:`KERNEL_TIERS`, or ``"auto"``
    (the default) for the machine's tier.  No run carries one; it is
    kept as the argument of the benchmark harness's record stamp,
    ``activate(BackendConfig())``.
    """

    kernel_tier: str = TIER_AUTO


_FUSED = ActiveKernels(
    kernel_tier="fused",
    build_weights=kernels_numba.build_weights,
    scatter=kernels_numba.scatter,
    scatter3=kernels_numba.scatter3,
)
_ORACLE = ActiveKernels(
    kernel_tier="oracle",
    build_weights=kernels_oracle.build_weights,
    scatter=kernels_oracle.scatter,
    scatter3=kernels_oracle.scatter3,  # None: stencil path is the ref
)

#: Every kernel tier by name, best first — the one statement of the tier
#: names.  Nothing under ``src/`` writes to the table; the ``fused`` row
#: is present whether or not numba imports (:func:`activate` is what
#: refuses it).
KERNEL_TIERS: Dict[str, ActiveKernels] = {
    row.kernel_tier: row for row in (_FUSED, _ORACLE)}


def activate(request: Union[BackendConfig, str, None] = None
             ) -> ActiveKernels:
    """The tier ``request`` selects; installs nothing.

    With no request (or ``"auto"``): ``REPRO_KERNEL_TIER`` if set, else
    the best available tier.  Raises :class:`ValueError` for an unknown
    tier name and for a tier that cannot run here, whether it was
    requested or named by the environment.
    """
    if isinstance(request, BackendConfig):
        request = request.kernel_tier
    if request is not None and not isinstance(request, str):
        raise TypeError(
            f"expected a BackendConfig, a kernel-tier name or None, "
            f"got {request!r}"
        )
    if request in (None, TIER_AUTO):
        # strict: an env-forced tier must exist
        request = os.environ.get(KERNEL_TIER_ENV, "").strip() or TIER_AUTO
    if request == TIER_AUTO:
        return _FUSED if kernels_numba.available() else _ORACLE
    row = KERNEL_TIERS.get(request)
    if row is None:
        raise ValueError(
            f"unknown kernel tier {request!r}; "
            f"kernel tiers: {list(KERNEL_TIERS)}"
        )
    if row is _FUSED and not kernels_numba.available():
        raise ValueError(
            f"kernel tier {request!r} is not available: "
            f"{kernels_numba.unavailable_reason()}"
        )
    return row
