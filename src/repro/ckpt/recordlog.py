"""The one durable record log: keyed upserts, whole-file atomic rewrite.

The service queue (:class:`repro.serve.queue.JobJournal`, one record per
accepted job) is the one thin user of :class:`RecordLog`.  A campaign's
completed cells need no such table: each is durable in the result cache,
one fsync'd file per cell.

* ``put`` upserts one record under its key and rewrites the file every
  ``every`` puts; ``flush`` forces the rewrite, and is a no-op when
  nothing changed;
* the file is the checksummed, atomically and durably written
  :mod:`repro.ckpt.format` container with an empty array table, so a
  crash mid-rewrite leaves either the old intact file or one that fails
  verification — never a silently half-written log;
* ``load`` adopts a file only if it verifies and carries this log's
  ``kind`` (and ``version``); a missing file is an empty log, a corrupt,
  torn or foreign one is an empty log plus a ``recordlog.unusable`` /
  ``recordlog.not_a_record`` event — the owner simply recomputes;
* writes are best-effort: an unwritable directory degrades durability
  to a ``recordlog.write_failed`` event, it never fails the work being
  recorded.

The file holds ``{"kind", [version], <field>: {key: record}, **extra}``;
every event carries ``kind=``.  The rewrite is whole-file on purpose
(an append-only format would need framing, replay and compaction).
"""

from __future__ import annotations

import logging
from typing import Any, Dict, Optional

from repro.ckpt.format import SnapshotError, read_snapshot, write_snapshot
from repro.obs.log import log_event
from repro.obs.registry import NULL_TELEMETRY, Telemetry

__all__ = ["RecordLog"]

logger = logging.getLogger(__name__)


class RecordLog:
    """Buffered, checksummed, keyed record file (see the module docstring).

    ``field`` names the meta entry holding the records; ``extra`` holds
    further meta entries persisted beside them (a sequence counter) —
    change one through :meth:`touch` so the next flush writes it.
    ``obs`` is the owner's registry; the ``recordlog.*`` notices are
    mirrored there.
    """

    def __init__(self, path: str, *, kind: str, field: str,
                 version: Optional[int] = None, every: int = 1,
                 obs: Telemetry = NULL_TELEMETRY) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.path = str(path)
        self.kind = kind
        self.field = field
        self.version = version
        self.every = int(every)
        self.obs = obs
        self.records: Dict[str, Any] = {}
        self.extra: Dict[str, Any] = {}
        self._pending = 0
        self._dirty = False

    def load(self) -> Dict[str, Any]:
        """Adopt the on-disk log; returns a copy of ``{key: record}``."""
        try:
            meta, _arrays = read_snapshot(self.path)
        except FileNotFoundError:
            return {}
        except (SnapshotError, OSError) as exc:
            log_event(
                "recordlog.unusable",
                "ignoring unusable %s file %s: %s", self.kind, self.path,
                exc, logger=logger, obs=self.obs, kind=self.kind)
            return {}
        records = meta.get(self.field)
        if (meta.get("kind") != self.kind
                or meta.get("version") != self.version
                or not isinstance(records, dict)):
            log_event(
                "recordlog.not_a_record",
                "ignoring %s: not a %s record file", self.path, self.kind,
                logger=logger, obs=self.obs, kind=self.kind)
            return {}
        self.records = dict(records)
        self.extra.update(
            (name, value) for name, value in meta.items()
            if name not in ("kind", "version", self.field))
        return dict(self.records)

    def put(self, key: str, record: Any) -> None:
        """Buffer one upsert; rewrites the file on the interval."""
        self.records[key] = record
        self._pending += 1
        self.touch()
        if self._pending >= self.every:
            self.flush()

    def touch(self) -> None:
        """Mark the log changed without counting towards the interval."""
        self._dirty = True

    def flush(self) -> None:
        """Atomically rewrite the file if anything changed."""
        if not self._dirty:
            return
        meta = dict(self.extra, kind=self.kind, **{self.field: self.records})
        if self.version is not None:
            meta["version"] = self.version
        try:
            write_snapshot(self.path, meta, {})
        except OSError as exc:
            log_event(
                "recordlog.write_failed",
                "could not write %s file %s: %s", self.kind, self.path,
                exc, logger=logger, obs=self.obs, kind=self.kind)
            return
        self._dirty = False
        self._pending = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RecordLog(path={self.path!r}, kind={self.kind!r}, "
                f"records={len(self.records)})")
