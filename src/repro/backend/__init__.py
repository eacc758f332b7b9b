"""The kernel-tier table behind the stencil primitive, and the rule that
picks a row.

The numerical layers of the library — the flat-index stencil engine,
the field gather, the FDTD solver — are plain NumPy except for one
seam defined here: the kernels ``build_weights`` / ``scatter`` /
``scatter3`` are called through one row of :data:`KERNEL_TIERS`, an
:class:`ActiveKernels`.  The table has two rows: the NumPy flat-index
path (``"oracle"`` — the historical code, kept verbatim as the
correctness reference) and an optional numba-compiled fused
build+scatter tier (``"fused"``).  :func:`activate` is the whole
selection rule (first match wins):

1. an explicit tier — ``SimulationConfig(backend=BackendConfig(
   kernel_tier=...))``, ``Session(config, backend="fused")``,
   ``python -m repro run --kernel-tier fused`` — errors if unknown or
   unable to run here,
2. the ``REPRO_KERNEL_TIER`` environment variable (same strict
   semantics; this is how the CI ``[jit]`` leg forces the fused tier),
3. ``"auto"``: ``fused`` when numba imports, ``oracle`` otherwise — a
   no-numba environment runs the oracle with zero ceremony (the failed
   import is noted once on the ``repro.backend`` logger, where it
   happens: :mod:`repro.backend.kernels_numba`).

The selection belongs to the run: :func:`activate` is a pure function
of its argument, the installed packages and the environment, the
:class:`~repro.api.Session` carries the row on its grid
(``grid.kernels``), and no module here remembers a "current" tier, so
two runs in one process do not see each other.  A caller with no run —
a bare ``Grid(config)``, the grid-less Appendix-B workloads — uses
``activate()``.

Rows sharing a ``numerics`` tag guarantee **bitwise-identical** results
(the oracle and fused tiers share ``"flat-index-v1"``, pinned by
``tests/test_stencil.py``; the field gather — BLAS block products per
step, the shared ``einsum`` adjoint otherwise — has no row here, so it
cannot tell the tiers apart); the campaign cache keys hash the tag instead
of the tier name, so bitwise-equal tiers share cache entries while a
tier with different numerics gets distinct keys automatically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

from repro.backend import kernels_numba, kernels_oracle
from repro.backend.base import TIER_AUTO, Array, BackendConfig

__all__ = [
    "ActiveKernels",
    "Array",
    "BackendConfig",
    "KERNEL_TIER_ENV",
    "KERNEL_TIERS",
    "activate",
]

#: Environment variable consulted when the configured tier is ``auto``;
#: set by the CI optional-deps leg to force the fused tier strictly.
KERNEL_TIER_ENV = "REPRO_KERNEL_TIER"

#: Numerics tag of the flat-index formulation.  Both tiers carry it:
#: they are bitwise identical by construction.
NUMERICS_FLAT_V1 = "flat-index-v1"


@dataclass(frozen=True)
class ActiveKernels:
    """One tier: its name, numerics tag and kernel dispatch table.

    ``scatter3`` is ``None`` for a tier without a fused three-component
    deposit (callers use the stencil path instead).
    """

    #: the tier's name, under the key configs, records and the CLI use
    kernel_tier: str
    #: tiers with equal tags produce bitwise-identical results
    numerics: str
    build_weights: Callable
    scatter: Callable
    scatter3: Optional[Callable]


_FUSED = ActiveKernels(
    kernel_tier="fused",
    numerics=NUMERICS_FLAT_V1,
    build_weights=kernels_numba.build_weights,
    scatter=kernels_numba.scatter,
    scatter3=kernels_numba.scatter3,
)
_ORACLE = ActiveKernels(
    kernel_tier="oracle",
    numerics=NUMERICS_FLAT_V1,
    build_weights=kernels_oracle.build_weights,
    scatter=kernels_oracle.scatter,
    scatter3=kernels_oracle.scatter3,  # None: stencil path is the ref
)

#: Every kernel tier by name, best first — the one statement of the tier
#: names (the CLI and the job service read their choices from it).
#: Nothing under ``src/`` writes to the table; the ``fused`` row is
#: present whether or not numba imports (:func:`activate` is what
#: refuses it).
KERNEL_TIERS: Dict[str, ActiveKernels] = {
    row.kernel_tier: row for row in (_FUSED, _ORACLE)}


def activate(config: Union[BackendConfig, str, None] = None
             ) -> ActiveKernels:
    """The tier a backend request selects; installs nothing.

    ``config`` is a :class:`~repro.backend.base.BackendConfig`, a bare
    kernel-tier name, or ``None`` for the defaults.  Called by
    :class:`repro.api.Session` at construction, which
    carries the row on its grid.  Raises :class:`ValueError` for an
    unknown tier name and for an explicit tier that cannot run here.
    """
    request = BackendConfig.coerce(config).kernel_tier
    if request == TIER_AUTO:
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
