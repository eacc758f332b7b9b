"""Kernel registry and tier resolution.

The :class:`KernelRegistry` maps named kernels (:data:`KERNEL_NAMES`) to
per-tier implementations and resolves a tier *request* (``"auto"`` /
``"oracle"`` / ``"fused"`` / a user-registered name) to the concrete
dispatch table the numerical layers call through
(:class:`ActiveKernels`).  Registration is additive: a tier provides the
kernels it accelerates and inherits the oracle for the rest, which is
what makes a new tier a registration instead of a rewrite.

Nothing here holds a "current" table: :func:`activate` is a pure
resolver and the caller keeps the result (a simulation carries it on
its grid, ``grid.kernels``).  A caller with no run — a bare
``Grid(config)``, the grid-less Appendix-B workloads — uses
``activate().kernels``, a function of the installed packages and the
environment only.

Selection order (first match wins):

1. an explicit tier on :class:`~repro.backend.base.BackendConfig`
   (``kernel_tier="oracle"``/``"fused"`` — errors if unavailable),
2. the ``REPRO_KERNEL_TIER`` environment variable (same strict
   semantics; this is how the CI ``[jit]`` leg forces the fused tier),
3. ``"auto"``: the highest-priority tier whose dependencies import.
   Unavailable tiers are skipped silently — logged once per process on
   the ``repro.backend`` logger — so a no-numba environment runs the
   oracle with zero ceremony.

Every tier declares a ``numerics`` tag.  Tiers sharing a tag guarantee
**bitwise-identical** results (the oracle and fused tiers share
``"flat-index-v1"``, pinned by ``tests/test_stencil.py``); the campaign
cache keys hash the tag instead of the tier name, so bitwise-equal tiers
share cache entries while a future tier with different numerics gets
distinct keys automatically.
"""

from __future__ import annotations

import logging
import os
import threading
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.backend import kernels_numba, kernels_oracle
from repro.obs.log import log_event
from repro.backend.base import (
    TIER_AUTO,
    TIER_FUSED,
    TIER_ORACLE,
    BackendConfig,
    KERNEL_NAMES,
)

logger = logging.getLogger("repro.backend")

#: Environment variable consulted when the configured tier is ``auto``;
#: set by the CI optional-deps leg to force the fused tier strictly.
KERNEL_TIER_ENV = "REPRO_KERNEL_TIER"

#: Numerics tag of the flat-index formulation.  Both built-in tiers
#: carry it: they are bitwise identical by construction.
NUMERICS_FLAT_V1 = "flat-index-v1"


def _always_available() -> bool:
    return True


@dataclass(frozen=True)
class KernelTier:
    """One registered kernel implementation tier.

    ``kernels`` maps kernel names to callables; names a tier omits are
    inherited from the oracle tier at resolution time, and an explicit
    ``None`` declares "no implementation" (consumers fall back to their
    stencil path — the oracle does this for ``scatter3``).
    """

    name: str
    #: tiers with equal tags produce bitwise-identical results
    numerics: str
    #: ``auto`` picks the available tier with the highest priority
    priority: int
    kernels: Mapping[str, Optional[Callable]] = field(default_factory=dict)
    is_available: Callable[[], bool] = _always_available
    #: shown when an explicit request hits an unavailable tier
    unavailable_reason: Callable[[], str] = lambda: ""

    def __post_init__(self) -> None:
        unknown = set(self.kernels) - set(KERNEL_NAMES)
        if unknown:
            raise ValueError(
                f"tier {self.name!r} registers unknown kernel(s) "
                f"{sorted(unknown)}; known kernels: {KERNEL_NAMES}"
            )


@dataclass(frozen=True)
class ActiveKernels:
    """Resolved per-kernel dispatch table of one tier.

    Attribute per kernel name; ``scatter3`` is ``None`` for tiers
    without a fused three-component deposit (callers use the stencil
    path instead).
    """

    tier: str
    numerics: str
    build_weights: Callable
    scatter: Callable
    scatter3: Optional[Callable]


class KernelRegistry:
    """Named-kernel dispatch across registered implementation tiers."""

    def __init__(self) -> None:
        self._tiers: Dict[str, KernelTier] = {}
        self._resolved: Dict[str, ActiveKernels] = {}
        self._fallback_logged: Set[str] = set()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def register(self, tier: KernelTier, replace: bool = False) -> None:
        """Add a tier (``replace=True`` to overwrite an existing name)."""
        with self._lock:
            if tier.name in self._tiers and not replace:
                raise ValueError(
                    f"kernel tier {tier.name!r} is already registered; "
                    "pass replace=True to overwrite"
                )
            self._tiers[tier.name] = tier
            self._resolved.clear()

    def tier_names(self) -> Tuple[str, ...]:
        """All registered tier names, best (highest priority) first."""
        tiers = sorted(self._tiers.values(),
                       key=lambda t: (-t.priority, t.name))
        return tuple(t.name for t in tiers)

    def available_tier_names(self) -> Tuple[str, ...]:
        """Registered tiers whose dependencies import, best first."""
        return tuple(name for name in self.tier_names()
                     if self._tiers[name].is_available())

    def tier(self, name: str) -> KernelTier:
        """The registered tier object for ``name`` (KeyError if absent)."""
        return self._tiers[name]

    # ------------------------------------------------------------------
    def numerics_tag(self, request: str = TIER_AUTO) -> str:
        """The numerics tag a tier request resolves to.

        Hashable identity of the *results* a request produces: ``auto``
        resolves through availability exactly like :meth:`resolve`, so
        on any machine where the available tiers share a tag (the
        built-ins always do) the returned tag — and therefore every
        cache key derived from it — is machine-independent.
        """
        return self.resolve(request).numerics

    def resolve(self, request: str = TIER_AUTO) -> ActiveKernels:
        """Resolve a tier request to its kernel dispatch table.

        ``auto`` picks the best available tier, logging each skipped
        unavailable tier once per process; an explicit name raises
        :class:`ValueError` when unknown or unavailable.
        """
        cached = self._resolved.get(request)
        if cached is not None:
            return cached
        if request == TIER_AUTO:
            tier = self._resolve_auto()
        else:
            tier = self._resolve_explicit(request)
        resolved = self._dispatch_table(tier)
        with self._lock:
            self._resolved[request] = resolved
        return resolved

    def _resolve_auto(self) -> KernelTier:
        chosen: Optional[KernelTier] = None
        for name in self.tier_names():
            tier = self._tiers[name]
            if tier.is_available():
                chosen = tier
                break
            if name not in self._fallback_logged:
                self._fallback_logged.add(name)
                log_event(
                    "tier.fallback",
                    "kernel tier %r unavailable (%s); auto-selection "
                    "falls back to the next tier",
                    name, tier.unavailable_reason() or "dependency missing",
                    logger=logger, level=logging.INFO, tier=name,
                )
        if chosen is None:
            raise RuntimeError("no available kernel tier is registered")
        return chosen

    def _resolve_explicit(self, request: str) -> KernelTier:
        tier = self._tiers.get(request)
        if tier is None:
            raise ValueError(
                f"unknown kernel tier {request!r}; registered tiers: "
                f"{list(self.tier_names())}"
            )
        if not tier.is_available():
            raise ValueError(
                f"kernel tier {request!r} is not available: "
                f"{tier.unavailable_reason() or 'dependency missing'}"
            )
        return tier

    def _dispatch_table(self, tier: KernelTier) -> ActiveKernels:
        base = self._tiers.get(TIER_ORACLE)
        merged: Dict[str, Optional[Callable]] = (
            dict(base.kernels) if base is not None else {})
        merged.update(tier.kernels)
        missing = [k for k in KERNEL_NAMES if k not in merged]
        if missing:
            raise ValueError(
                f"kernel tier {tier.name!r} resolves with missing "
                f"kernel(s) {missing} and no oracle tier to inherit from"
            )
        return ActiveKernels(tier=tier.name, numerics=tier.numerics,
                             **{name: merged[name] for name in KERNEL_NAMES})


#: The process-wide registry with the two built-in tiers.
kernel_registry = KernelRegistry()
kernel_registry.register(KernelTier(
    name=TIER_ORACLE,
    numerics=NUMERICS_FLAT_V1,
    priority=0,
    kernels={
        "build_weights": kernels_oracle.build_weights,
        "scatter": kernels_oracle.scatter,
        "scatter3": kernels_oracle.scatter3,  # None: stencil path is the ref
    },
))
kernel_registry.register(KernelTier(
    name=TIER_FUSED,
    numerics=NUMERICS_FLAT_V1,  # bitwise-identical to the oracle
    priority=10,
    kernels={
        "build_weights": kernels_numba.build_weights,
        "scatter": kernels_numba.scatter,
        "scatter3": kernels_numba.scatter3,
    },
    is_available=kernels_numba.available,
    unavailable_reason=kernels_numba.unavailable_reason,
))


def register_kernel_tier(tier: KernelTier, replace: bool = False) -> None:
    """Register a kernel tier with the process-wide registry."""
    kernel_registry.register(tier, replace=replace)


# ---------------------------------------------------------------------------
# resolving a configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BackendSelection:
    """The kernel tier one configuration resolved to."""

    config: BackendConfig
    kernels: ActiveKernels

    @property
    def kernel_tier(self) -> str:
        """Name of the resolved kernel tier (``auto`` already resolved)."""
        return self.kernels.tier


#: accepted forms of a backend selection request
ConfigLike = Union[BackendConfig, str, None]


def _coerce_config(value: ConfigLike) -> BackendConfig:
    if value is None:
        return BackendConfig()
    if isinstance(value, BackendConfig):
        return value
    if isinstance(value, str):
        return BackendConfig(kernel_tier=value)
    raise TypeError(
        f"expected a BackendConfig, a kernel-tier name or None, "
        f"got {value!r}"
    )


def activate(config: ConfigLike = None) -> BackendSelection:
    """Resolve a backend configuration; installs nothing.

    ``config`` is a :class:`~repro.backend.base.BackendConfig`, a bare
    kernel-tier name, or ``None`` for the defaults.  Called by
    :class:`repro.pic.simulation.Simulation` at construction, which
    carries the result on its grid.
    """
    config = _coerce_config(config)
    request = config.kernel_tier
    if request == TIER_AUTO:
        env = os.environ.get(KERNEL_TIER_ENV, "").strip()
        if env:
            request = env  # strict: an env-forced tier must exist
    return BackendSelection(config=config,
                            kernels=kernel_registry.resolve(request))
