"""On-disk result store for campaign experiments.

Every experiment spec (see :mod:`repro.analysis.campaign`) hashes to a
content key covering the workload parameters, configuration name, steps,
seed, the library version and a digest of the package sources; the
cache stores one JSON file per key so a repeated sweep replays results
instead of recomputing hours of simulation.

Layout (two-level fan-out keeps directories small)::

    <cache-dir>/
        <key[:2]>/<key>.json    # {"key", "spec", "result", "version"}

Entries are written atomically *and durably* (temp file + ``fsync`` +
``os.replace`` + parent-directory ``fsync``) so neither a killed run nor
a host crash can leave a truncated or renamed-but-empty entry behind,
and unreadable or malformed entries are treated as misses, counted as
invalidations and deleted — never raised to the caller.

Concurrent writers are safe by the same construction: every ``put``
stages into its own private temp file and publishes with an atomic
``os.replace``, so two processes storing the same key race only on the
rename — the last rename wins wholesale and a concurrent reader sees
either complete payload, never a torn mix (pinned by the concurrent-put
test in ``tests/test_campaign.py``).

The cache is bounded on demand rather than on every write:
:meth:`ResultCache.size_stats` reports the on-disk footprint and
:meth:`ResultCache.evict` runs an LRU pass down to a byte budget
(``get`` refreshes an entry's mtime, so recently replayed results
survive).  The campaign CLI exposes this as ``--cache-max-bytes`` and
the ``repro.serve`` tenant namespaces run it after every store.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro._version import __version__

#: Bumped whenever the stored payload layout changes incompatibly; part of
#: every content key so stale-schema entries miss instead of misparse.
CACHE_SCHEMA_VERSION = 1

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> str:
    """The cache directory used when none is configured explicitly."""
    return os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)


def canonical_json(payload: object) -> str:
    """Deterministic JSON used for hashing and for the stored entries.

    Keys are sorted and separators fixed so that logically equal payloads
    serialise to identical bytes regardless of insertion order.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_key(payload: object) -> str:
    """SHA-256 content hash of a JSON-able payload."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _is_hex(text: str) -> bool:
    return all(c in "0123456789abcdef" for c in text)


@dataclass
class CacheStats:
    """Hit/miss/invalidation accounting of one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    #: entries that existed but were unreadable/malformed and got evicted
    invalidations: int = 0
    writes: int = 0
    #: store attempts that failed on the filesystem (cache dir unwritable)
    write_errors: int = 0
    #: intact entries removed by the LRU :meth:`ResultCache.evict` pass
    evictions: int = 0
    #: bytes reclaimed by those evictions
    evicted_bytes: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from disk (0.0 when none happened)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "writes": self.writes,
            "write_errors": self.write_errors,
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
            "hit_ratio": self.hit_ratio,
        }


@dataclass
class ResultCache:
    """Content-addressed JSON store under ``cache_dir``."""

    cache_dir: str
    #: hit/miss/eviction counters of this handle (state, not an option)
    stats: CacheStats = field(default_factory=CacheStats, init=False)

    def path_for(self, key: str) -> str:
        """Absolute path of the entry for ``key``."""
        return os.path.join(self.cache_dir, key[:2], f"{key}.json")

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """The stored payload for ``key``, or None on a miss.

        A corrupt entry (invalid JSON, undecodable bytes, key mismatch)
        is deleted, counted as an invalidation and reported as a miss, so
        the caller recomputes instead of crashing.  Read *failures*
        (missing file, unreadable cache path, transient I/O errors like
        EMFILE/EIO) are plain misses: they say nothing about the entry's
        content, so nothing is evicted.
        """
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            if not isinstance(payload, dict) or payload.get("key") != key:
                raise ValueError("cache entry does not match its key")
        except OSError:
            self.stats.misses += 1
            return None
        except ValueError:
            # json.JSONDecodeError and UnicodeDecodeError both subclass
            # ValueError: the entry itself is bad — evict it
            self.stats.invalidations += 1
            self.stats.misses += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        self.stats.hits += 1
        try:
            # refresh the LRU clock: a replayed entry is recently used,
            # so an evict() pass reclaims cold entries first
            os.utime(path)
        except OSError:
            pass
        return payload

    def put(self, key: str, spec: object, result: dict) -> Optional[str]:
        """Store ``result`` (a JSON-able dict) for ``key``.

        Best-effort: filesystem failures (read-only cache directory, disk
        full) are counted in ``stats.write_errors`` and reported as None —
        an unwritable cache degrades to recompute-next-time, it never
        discards results that were already computed.  Returns the entry
        path on success.
        """
        # imported here: repro.ckpt's session layer imports content_key
        from repro.ckpt.format import atomic_write_bytes

        path = self.path_for(key)
        payload = {
            "key": key,
            "version": __version__,
            "schema": CACHE_SCHEMA_VERSION,
            "spec": spec,
            "result": result,
        }
        try:
            atomic_write_bytes(path, canonical_json(payload).encode("utf-8"))
        except OSError:
            self.stats.write_errors += 1
            return None
        self.stats.writes += 1
        return path

    def discard(self, key: str) -> bool:
        """Delete the entry for ``key`` if present; no stats are touched."""
        try:
            os.remove(self.path_for(key))
            return True
        except OSError:
            return False

    def reclassify_corrupt_hit(self, key: str) -> None:
        """Turn the latest hit on ``key`` into an invalidating miss.

        Readers that detect a semantically corrupt entry only after a
        successful :meth:`get` (valid JSON, wrong shape) call this so the
        entry is evicted and the accounting reflects what was actually
        recomputed; the counters stay owned by the cache.
        """
        self.stats.hits = max(0, self.stats.hits - 1)
        self.stats.misses += 1
        self.stats.invalidations += 1
        self.discard(key)

    def _iter_layout_files(self):
        """Yield paths of files that belong to the cache layout.

        Only files under the documented ``<key[:2]>/`` fan-out directories
        are considered — entry files (``<64-hex>.json``) and orphaned
        ``*.tmp`` files from a hard-killed ``put`` — so a cache pointed at
        a directory containing unrelated data never touches it.
        """
        if not os.path.isdir(self.cache_dir):
            return
        for sub in sorted(os.listdir(self.cache_dir)):
            subdir = os.path.join(self.cache_dir, sub)
            if len(sub) != 2 or not _is_hex(sub) or not os.path.isdir(subdir):
                continue
            for name in sorted(os.listdir(subdir)):
                is_entry = (name.endswith(".json") and len(name) == 69
                            and _is_hex(name[:-5]))
                if is_entry or name.endswith(".tmp"):
                    yield os.path.join(subdir, name)

    def clear(self) -> int:
        """Delete every entry; returns the number of files removed.

        Only files matching the cache layout are touched (see
        :meth:`_iter_layout_files`); anything else under ``cache_dir``
        survives.  Orphaned ``*.tmp`` files from a hard-killed ``put``
        (SIGKILL between mkstemp and replace) are swept too.
        """
        removed = 0
        for path in self._iter_layout_files():
            try:
                os.remove(path)
                removed += 1
            except OSError:
                pass
        return removed

    def size_stats(self) -> Dict[str, int]:
        """On-disk footprint: ``{"entries": N, "total_bytes": B}``.

        Counts only files belonging to the cache layout (see
        :meth:`_iter_layout_files`); orphaned ``*.tmp`` staging files are
        included in ``total_bytes`` (they occupy real disk) but not in
        ``entries``.  Files that vanish mid-scan (a concurrent eviction
        or ``clear``) are skipped, never raised.
        """
        entries = 0
        total = 0
        for path in self._iter_layout_files():
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            total += size
            if path.endswith(".json"):
                entries += 1
        return {"entries": entries, "total_bytes": total}

    def evict(self, max_bytes: int) -> int:
        """LRU pass: delete oldest entries until ≤ ``max_bytes`` remain.

        Recency is the entry file's mtime — ``put`` sets it and ``get``
        refreshes it, so the pass reclaims the least recently *used*
        results first (ties broken by path for determinism).  Orphaned
        ``*.tmp`` files from a hard-killed writer are always swept.  The
        pass is atomic per entry (each removal is one ``os.remove``) and
        corrupt-tolerant: files that cannot be stat'ed or removed (a
        concurrent eviction, permissions) are skipped without aborting
        the sweep.  Returns the number of entries evicted; the count and
        reclaimed bytes land in ``stats.evictions`` /
        ``stats.evicted_bytes``.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        ranked = []
        total = 0
        for path in self._iter_layout_files():
            try:
                status = os.stat(path)
            except OSError:
                continue
            if path.endswith(".tmp"):
                # dead weight from a killed put: sweep, don't rank
                try:
                    os.remove(path)
                except OSError:
                    pass
                continue
            ranked.append((status.st_mtime, path, status.st_size))
            total += status.st_size
        removed = 0
        for _mtime, path, size in sorted(ranked):
            if total <= max_bytes:
                break
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            removed += 1
            self.stats.evictions += 1
            self.stats.evicted_bytes += size
        return removed

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        return sum(1 for path in self._iter_layout_files()
                   if path.endswith(".json"))
