"""Kernel-tier registry behind the stencil primitive.

The numerical layers of the library — the flat-index stencil engine,
the field gather, the FDTD solver — are plain NumPy except for one
seam defined here: a :class:`KernelRegistry` dispatching the named
kernels ``build_weights`` / ``scatter`` / ``scatter3`` to the best
registered implementation **tier**.

Two tiers ship built in: the NumPy flat-index path (``"oracle"`` — the
historical code, kept verbatim as the correctness reference) and an
optional numba-compiled fused build+scatter tier
(``"fused"``) that auto-selects when numba imports and silently falls
back otherwise.  Both produce bitwise-identical results, pinned by the
hypothesis suite in ``tests/test_stencil.py``; the shared ``numerics``
tag that encodes this is what the campaign cache keys hash, so results
computed on either tier replay from one cache entry.

Select a tier per simulation with
``SimulationConfig(backend=BackendConfig(kernel_tier=...))``, per
session with ``Session(config, backend="fused")``, or per run with
``python -m repro run --kernel-tier fused``.  The selection belongs to
the run: :func:`activate` only *resolves* a configuration to a
:class:`BackendSelection`, the :class:`~repro.pic.simulation.Simulation`
carries the resolved :class:`ActiveKernels` on its grid
(``grid.kernels``), and no module here remembers a "current" tier, so
two runs in one process do not see each other.  Register a new tier by
instantiating :class:`~repro.backend.registry.KernelTier` with the
kernels it accelerates (everything else inherits the oracle) and
calling :func:`register_kernel_tier` — see the README's "Backends &
kernel tiers" section.
"""

from repro.backend.base import KERNEL_NAMES, Array, BackendConfig
from repro.backend.registry import (
    KERNEL_TIER_ENV,
    ActiveKernels,
    BackendSelection,
    KernelRegistry,
    KernelTier,
    activate,
    kernel_registry,
    register_kernel_tier,
)

__all__ = [
    "ActiveKernels",
    "Array",
    "BackendConfig",
    "BackendSelection",
    "KERNEL_NAMES",
    "KERNEL_TIER_ENV",
    "KernelRegistry",
    "KernelTier",
    "activate",
    "kernel_registry",
    "register_kernel_tier",
]
