"""Per-cell deduplication: one computation, many subscribers.

A campaign grid submitted over HTTP expands to cells whose
:meth:`~repro.analysis.campaign.ExperimentSpec.cache_key` is the same
content identity the offline campaign uses, so three layers can answer a
cell without recomputing it:

1. the submitting tenant's on-disk :class:`~repro.analysis.cache
   .ResultCache` namespace (authoritative, survives restarts),
2. the :class:`InFlightTable` — a cell currently computing anywhere in
   the service hands out its ``asyncio.Future``, so concurrent jobs
   sharing cells *subscribe* instead of double-computing (the ISSUE's
   "one computation, many subscribers"),
3. the :class:`ResultMemo` — a bounded in-memory LRU over recently
   finished cells, which gives **cross-tenant** O(1) reuse: tenant
   caches are isolated directories, so without the memo a second tenant
   submitting the same grid would recompute cells the service just
   finished for the first.

:class:`CellResolver` stitches the layers together.  The critical
ordering: the owner registers its in-flight future *synchronously,
before its first await* — a duplicate arriving between the cache probe
and the computation therefore always finds either the future or the
finished entry, never a gap.

Accounting (all on the service's own telemetry handle):

* ``campaign.cache.hits`` / ``serve.cells.cache_hits`` — disk hit,
* ``campaign.cache.misses`` / ``serve.cells.computed`` — a computation
  was actually scheduled (misses are *not* counted for memo or
  in-flight answers, so "misses == unique cold cells" holds and the
  dedup test can pin it),
* ``serve.cells.inflight_hits`` / ``serve.cells.memo_hits`` — dedup
  layer answers.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Dict, Mapping, Optional, Tuple

from repro.obs.registry import Telemetry

__all__ = [
    "CellResolver",
    "InFlightTable",
    "ResultMemo",
]


class InFlightTable:
    """Cache-key -> shared ``asyncio.Future`` of cells computing now."""

    def __init__(self) -> None:
        self._futures: Dict[str, "asyncio.Future"] = {}

    def get(self, key: str) -> Optional["asyncio.Future"]:
        return self._futures.get(key)

    def claim(self, key: str) -> "asyncio.Future":
        """Register (synchronously) the future for a cell this caller
        owns; raises if the key is already in flight."""
        if key in self._futures:
            raise RuntimeError(f"cell {key!r} is already in flight")
        future = asyncio.get_running_loop().create_future()
        self._futures[key] = future
        return future

    def release(self, key: str) -> None:
        self._futures.pop(key, None)

    def __contains__(self, key: str) -> bool:
        return key in self._futures

    def __len__(self) -> int:
        return len(self._futures)


class ResultMemo:
    """Bounded LRU of recently resolved cell results (cross-tenant).

    Values are the cache-layout result payloads (plain JSON data); the
    memo hands out the stored reference, so callers must treat payloads
    as immutable — every layer here does, they only serialise them.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 0:
            raise ValueError(
                f"max_entries must be >= 0, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[str, Dict[str, object]]" = OrderedDict()

    def get(self, key: str) -> Optional[Dict[str, object]]:
        payload = self._entries.get(key)
        if payload is not None:
            self._entries.move_to_end(key)
        return payload

    def put(self, key: str, payload: Dict[str, object]) -> None:
        if self.max_entries == 0:
            return
        self._entries[key] = payload
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)


class CellResolver:
    """Resolve one cell through cache -> in-flight -> memo -> compute.

    ``pool`` is anything with an ``async run(spec_payload) -> payload``
    (the :class:`~repro.serve.queue.WorkerPool`); ``tenants`` is the
    :class:`~repro.serve.tenants.TenantManager`.  The resolver is an
    event-loop-side object — every blocking filesystem touch goes
    through ``asyncio.to_thread``.
    """

    #: provenance values :meth:`resolve` reports
    SOURCES = ("cache", "inflight", "memo", "computed")

    def __init__(self, tenants, pool, obs: Telemetry,
                 memo_entries: int = 256) -> None:
        self.tenants = tenants
        self.pool = pool
        self.obs = obs
        self.inflight = InFlightTable()
        self.memo = ResultMemo(memo_entries)

    async def resolve(self, tenant: str, spec_payload: Mapping,
                      key: str) -> Tuple[Dict[str, object], str]:
        """The cell's result payload plus its provenance source.

        Raises whatever the computation raised; subscribers awaiting the
        shared future receive the same exception.
        """
        shared = self.inflight.get(key)
        if shared is not None:
            payload = await asyncio.shield(shared)
            self.obs.count("serve.cells.inflight_hits")
            # adopt into the subscriber's own namespace so its tenant
            # cache is complete regardless of who computed the cell
            await asyncio.to_thread(
                self._store, tenant, key, spec_payload, payload)
            return payload, "inflight"

        # this caller owns the cell: publish the future before the first
        # await so later duplicates subscribe instead of racing us
        future = self.inflight.claim(key)
        try:
            payload, source = await self._resolve_owned(
                tenant, spec_payload, key)
        except BaseException as exc:
            future.set_exception(exc)
            # mark retrieved: subscribers re-raise it themselves, and an
            # unobserved future exception would warn at GC time even
            # when there are no subscribers
            future.exception()
            raise
        else:
            future.set_result(payload)
            return payload, source
        finally:
            self.inflight.release(key)

    async def _resolve_owned(self, tenant: str, spec_payload: Mapping,
                             key: str) -> Tuple[Dict[str, object], str]:
        namespace = self.tenants.get(tenant)
        entry = await asyncio.to_thread(namespace.cache.get, key)
        if entry is not None:
            result = entry.get("result")
            if isinstance(result, dict):
                self.obs.count("campaign.cache.hits")
                self.obs.count("serve.cells.cache_hits")
                self.memo.put(key, result)
                return result, "cache"
            # parsed JSON of the wrong shape: evict and recompute, same
            # as Campaign.run does
            await asyncio.to_thread(
                namespace.cache.reclassify_corrupt_hit, key)

        memoized = self.memo.get(key)
        if memoized is not None:
            self.obs.count("serve.cells.memo_hits")
            await asyncio.to_thread(
                self._store, tenant, key, spec_payload, memoized)
            return memoized, "memo"

        self.obs.count("campaign.cache.misses")
        self.obs.count("serve.cells.computed")
        payload = await self.pool.run(spec_payload)
        self.memo.put(key, payload)
        await asyncio.to_thread(
            self._store, tenant, key, spec_payload, payload)
        return payload, "computed"

    def _store(self, tenant: str, key: str, spec_payload: Mapping,
               payload: Dict[str, object]) -> None:
        self.tenants.get(tenant).store(key, dict(spec_payload), payload)
