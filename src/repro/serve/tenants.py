"""Multi-tenant cache namespaces for the campaign service.

Every tenant owns a private subdirectory of the service cache root,
wrapped in its own :class:`~repro.analysis.cache.ResultCache` — so one
tenant's eviction pressure, size accounting and hit/miss statistics
never leak into another's.  Namespace directories are created lazily on
first use and survive server restarts (they are ordinary result caches;
``python -m repro campaign --cache-dir <root>/<tenant>`` reads them).

Tenant names are a single path component (``[A-Za-z0-9][A-Za-z0-9._-]*``
up to 64 characters, with a leading alphanumeric so ``..`` and hidden
directories are unrepresentable); anything else raises
:class:`TenantNameError`, which the HTTP layer maps to a 400.

When the service is configured with a per-tenant byte budget, every
store runs the :meth:`~repro.analysis.cache.ResultCache.evict` LRU pass
for that namespace and reports reclamation through the telemetry
counters ``serve.tenant.evictions`` / ``serve.tenant.evicted_bytes``.
"""

from __future__ import annotations

import os
import re
from typing import Dict, Optional

from repro.analysis.cache import ResultCache
from repro.obs.registry import NULL_TELEMETRY, Telemetry

__all__ = [
    "DEFAULT_TENANT",
    "TenantManager",
    "TenantNameError",
    "TenantNamespace",
    "validate_tenant_name",
]

#: tenant used when a submission does not name one
DEFAULT_TENANT = "public"

#: one path component, length 1-64, leading alphanumeric (no dotfiles,
#: no ``..``, no separators)
_TENANT_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class TenantNameError(ValueError):
    """The submitted tenant name cannot name a cache namespace."""


def validate_tenant_name(name: str) -> str:
    """Return ``name`` if it is a legal tenant, else raise
    :class:`TenantNameError`."""
    if not isinstance(name, str) or not _TENANT_PATTERN.match(name):
        raise TenantNameError(
            f"invalid tenant name {name!r}: expected 1-64 characters of "
            "[A-Za-z0-9._-] starting with an alphanumeric")
    return name


class TenantNamespace:
    """One tenant's result-cache namespace plus its byte budget."""

    def __init__(self, name: str, directory: str,
                 max_bytes: Optional[int] = None,
                 obs: Telemetry = NULL_TELEMETRY) -> None:
        self.name = name
        self.directory = directory
        self.max_bytes = max_bytes
        self.cache = ResultCache(directory)
        self._obs = obs

    def store(self, key: str, spec_payload: object,
              result_payload: dict) -> None:
        """Persist one result, then enforce the namespace byte budget.

        Eviction runs *after* the store so the freshly written entry is
        the newest on the LRU clock; a budget smaller than one entry
        therefore evicts the entry straight back out (the namespace
        degrades to a pass-through, never to an error).
        """
        self.cache.put(key, spec_payload, result_payload)
        if self.max_bytes is None:
            return
        before = self.cache.stats.evicted_bytes
        evicted = self.cache.evict(self.max_bytes)
        if evicted:
            self._obs.count("serve.tenant.evictions", evicted)
            self._obs.count("serve.tenant.evicted_bytes",
                            self.cache.stats.evicted_bytes - before)

    def stats(self) -> Dict[str, object]:
        """Accounting the service reports for this namespace."""
        payload: Dict[str, object] = {"tenant": self.name}
        payload.update(self.cache.size_stats())
        payload["max_bytes"] = self.max_bytes
        payload["cache"] = self.cache.stats.as_dict()
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TenantNamespace({self.name!r}, "
                f"dir={self.directory!r}, max_bytes={self.max_bytes})")


class TenantManager:
    """Lazily materialised tenant-name -> namespace map under one root."""

    def __init__(self, root: str, max_bytes_per_tenant: Optional[int] = None,
                 obs: Telemetry = NULL_TELEMETRY) -> None:
        if max_bytes_per_tenant is not None and max_bytes_per_tenant < 0:
            raise ValueError(
                f"max_bytes_per_tenant must be >= 0, "
                f"got {max_bytes_per_tenant}")
        self.root = str(root)
        self.max_bytes_per_tenant = max_bytes_per_tenant
        self._obs = obs
        self._namespaces: Dict[str, TenantNamespace] = {}

    def get(self, name: Optional[str]) -> TenantNamespace:
        """The namespace for ``name`` (:data:`DEFAULT_TENANT` for None),
        validating the name and creating the directory lazily."""
        tenant = validate_tenant_name(
            name if name is not None else DEFAULT_TENANT)
        namespace = self._namespaces.get(tenant)
        if namespace is None:
            namespace = TenantNamespace(
                tenant, os.path.join(self.root, tenant),
                max_bytes=self.max_bytes_per_tenant, obs=self._obs)
            self._namespaces[tenant] = namespace
        return namespace

    def known(self) -> Dict[str, TenantNamespace]:
        """Namespaces touched this process plus any already on disk."""
        if os.path.isdir(self.root):
            for entry in sorted(os.listdir(self.root)):
                if (_TENANT_PATTERN.match(entry)
                        and os.path.isdir(os.path.join(self.root, entry))):
                    self.get(entry)
        return dict(self._namespaces)

    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant accounting (see :meth:`TenantNamespace.stats`)."""
        return {name: namespace.stats()
                for name, namespace in sorted(self.known().items())}
