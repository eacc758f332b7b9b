"""Job model, durable queue journal, worker pool.

A submission is a declarative campaign grid (the same workload x PPC x
configuration space as ``python -m repro campaign``).  Its cells come
from :func:`repro.analysis.campaign.expand_request`, the one grid
expansion, which the CLI runs too: a grid one of them rejects the other
rejects, and an accepted one has the same cells and ``cache_key()``s, so
HTTP submissions and CLI sweeps share campaign cache entries.

Accepted jobs are durable before the ``202`` goes out: the
:class:`JobJournal` (a checksummed, torn-write-tolerant file) records
each job's request, status and cell keys, on acceptance and again when
the job ends.  A cell's result is durable in one place only, the
tenant's result cache under the cell's key.  So a server killed
mid-queue restarts, restores finished jobs from the cache and re-expands
unfinished ones on the running build (failing one whose grid this build
rejects), and computes only the cells the cache lacks (no accepted cell
is lost, none runs twice).

Cache misses execute on a :class:`WorkerPool`: a
:class:`repro.exec.pool.SupervisedPool` (which owns worker death,
rebuild-once and permanent degrade — see there) bounded by an asyncio
semaphore.  Cells the pool cannot take run one at a time on a single
in-process worker thread.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import logging
import os
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.analysis.campaign import expand_request
from repro.ckpt.format import SnapshotError, read_snapshot, write_snapshot
from repro.exec.pool import SupervisedPool
from repro.obs.log import log_event
from repro.obs.registry import NULL_TELEMETRY, Telemetry

__all__ = [
    "Job",
    "JobCell",
    "JobJournal",
    "QUEUE_FILENAME",
    "WorkerPool",
]

logger = logging.getLogger(__name__)

#: queue journal filename inside the service root directory
QUEUE_FILENAME = "serve-queue.ckpt"

_QUEUE_KIND = "serve-queue"
_QUEUE_VERSION = 1

#: job lifecycle states
JOB_STATES = ("queued", "running", "completed", "failed")


# ----------------------------------------------------------------------
# Job model
# ----------------------------------------------------------------------

@dataclass
class JobCell:
    """One expanded grid cell of a job, plus its resolution state.

    ``spec_payload`` is None only for a cell of a finished job whose
    tenant-cache entry is gone: such a cell is never run again.
    """

    index: int
    key: str
    spec_payload: Optional[Dict[str, Any]] = None
    #: provenance once resolved: cache | inflight | memo | computed
    source: Optional[str] = None
    result: Optional[Dict[str, Any]] = None

    @property
    def done(self) -> bool:
        return self.result is not None


def expand_cells(request: Mapping) -> List[JobCell]:
    """The cells of a submission on this build: specs and cache keys."""
    return [JobCell(index=index, key=spec.cache_key(),
                    spec_payload=spec.to_dict())
            for index, spec in enumerate(expand_request(request))]


@dataclass
class Job:
    """One accepted submission: its grid, cells and lifecycle state."""

    job_id: str
    tenant: str
    request: Dict[str, Any]
    cells: List[JobCell]
    status: str = "queued"
    error: Optional[str] = None

    @property
    def completed_cells(self) -> int:
        return sum(1 for cell in self.cells if cell.done)

    def summary(self) -> Dict[str, Any]:
        """The compact status payload ``GET /v1/jobs/<id>`` returns."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "status": self.status,
            "cells": len(self.cells),
            "completed": self.completed_cells,
            "error": self.error,
        }

    # ------------------------------------------------------------------
    def to_journal(self) -> Dict[str, Any]:
        """JSON-able journal record: the request and each cell's key.

        A cell's spec and result live in the tenant cache under that key.
        """
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "request": self.request,
            "status": self.status,
            "error": self.error,
            "cells": [{"index": cell.index, "key": cell.key}
                      for cell in self.cells],
        }

    @classmethod
    def from_journal(cls, payload: Mapping) -> "Job":
        """The job a record describes, its cells not yet resolved (the
        ``spec``/``source``/``result`` that older records carry per cell
        are ignored)."""
        status = str(payload.get("status", "queued"))
        if status not in JOB_STATES:
            status = "queued"
        return cls(
            job_id=str(payload["job_id"]),
            tenant=str(payload["tenant"]),
            request=dict(payload.get("request", {})),
            cells=[JobCell(index=int(entry["index"]), key=str(entry["key"]))
                   for entry in payload["cells"]],
            status=status,
            error=payload.get("error"),
        )


# ----------------------------------------------------------------------
# Durable queue journal
# ----------------------------------------------------------------------

class JobJournal:
    """Crash-durable record of every accepted job, rewritten whole.

    The file is the checksummed, atomically and durably written
    :mod:`repro.ckpt.format` container with an empty array table, meta
    ``{"kind": "serve-queue", "version": 1, "next_seq": n,
    "jobs": {job_id: record}}``.  ``record`` upserts one job and rewrites
    the file every ``every`` records; ``flush`` forces the rewrite and is
    a no-op when nothing changed.  The service writes a job twice: on
    acceptance, before the 202, and when it reaches a terminal state.

    A missing file is an empty journal.  A corrupt, torn or foreign one
    (wrong ``kind``/``version``) is an empty journal plus a
    ``serve.journal_unusable`` event, and an unwritable directory is a
    ``serve.journal_write_failed`` event: durability degrades, the jobs
    themselves never fail.  Writes from several threads are serialised.
    """

    def __init__(self, directory: str, every: int = 1,
                 obs: Telemetry = NULL_TELEMETRY) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.path = os.path.join(str(directory), QUEUE_FILENAME)
        self.every = int(every)
        self.obs = obs
        self.jobs: Dict[str, Dict[str, Any]] = {}
        self.next_seq = 1
        self._pending = 0
        self._dirty = False
        self._lock = threading.Lock()

    def load(self) -> Dict[str, Dict[str, Any]]:
        """Adopt the on-disk journal; returns ``{job_id: record}``."""
        try:
            meta, _arrays = read_snapshot(self.path)
        except FileNotFoundError:
            return {}
        except (SnapshotError, OSError) as exc:
            self._unusable(exc)
            return {}
        jobs = meta.get("jobs")
        if (meta.get("kind") != _QUEUE_KIND
                or meta.get("version") != _QUEUE_VERSION
                or not isinstance(jobs, dict)):
            self._unusable("not a job journal")
            return {}
        self.jobs = dict(jobs)
        self.next_seq = meta.get("next_seq", 1)
        return dict(self.jobs)

    def new_job_id(self) -> str:
        """The next job id; the counter itself is journaled, so ids are
        never reused across restarts."""
        with self._lock:
            seq = max(int(self.next_seq), 1)
            self.next_seq = seq + 1
            self._dirty = True
        return f"job-{seq:06d}"

    def record(self, job_payload: Mapping) -> None:
        """Buffer one job upsert; rewrites the file on the interval."""
        with self._lock:
            self.jobs[str(job_payload["job_id"])] = dict(job_payload)
            self._pending += 1
            self._dirty = True
            if self._pending >= self.every:
                self._write()

    def flush(self) -> None:
        """Atomically rewrite the journal if anything is buffered."""
        with self._lock:
            if self._dirty:
                self._write()

    def _write(self) -> None:
        meta = {"kind": _QUEUE_KIND, "version": _QUEUE_VERSION,
                "next_seq": self.next_seq, "jobs": self.jobs}
        try:
            write_snapshot(self.path, meta, {})
        except OSError as exc:
            log_event(
                "serve.journal_write_failed",
                "could not write job journal %s: %s", self.path, exc,
                logger=logger, obs=self.obs)
            return
        self._dirty = False
        self._pending = 0

    def _unusable(self, reason: object) -> None:
        log_event(
            "serve.journal_unusable",
            "ignoring unusable job journal %s: %s", self.path, reason,
            logger=logger, obs=self.obs)


# ----------------------------------------------------------------------
# Worker pool
# ----------------------------------------------------------------------

class WorkerPool:
    """Bounded asyncio spec executor over a :class:`SupervisedPool`.

    ``jobs`` caps concurrent cells (an asyncio semaphore) and sizes the
    process pool.  A cell the supervised pool cannot take — it is
    degraded, or this cell's worker died and it gets its one retry —
    runs on one in-process worker thread, one cell at a time.
    """

    def __init__(self, jobs: int = 1,
                 task_fn: Optional[Callable] = None,
                 obs: Telemetry = NULL_TELEMETRY) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.task_fn = task_fn
        self.supervised = SupervisedPool(self.jobs, owner="serve", obs=obs)
        # threads start on first use, so a healthy pool never spawns it
        self._serial = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-cell")
        self._semaphore = asyncio.Semaphore(self.jobs)

    @property
    def degraded(self) -> bool:
        return self.supervised.degraded

    # ------------------------------------------------------------------
    def _resolve_task_fn(self) -> Callable[[Mapping], Dict[str, Any]]:
        """``task_fn``, or the campaign worker entry point resolved *at
        call time* through the module attribute, so fault harnesses that
        monkeypatch ``repro.analysis.campaign._execute_spec_payload``
        (``tests/faults.py::killing_spec_executor``) reach the
        service exactly like they reach ``Campaign.run``."""
        if self.task_fn is not None:
            return self.task_fn
        from repro.analysis import campaign

        return campaign._execute_spec_payload

    # ------------------------------------------------------------------
    async def run(self, spec_payload: Mapping) -> Dict[str, Any]:
        """Execute one spec payload, returning its cache-layout result."""
        async with self._semaphore:
            fn = self._resolve_task_fn()
            future = self.supervised.submit(fn, dict(spec_payload))
            if future is not None:
                try:
                    return await asyncio.wrap_future(future)
                except Exception:
                    # a dead worker (SIGKILL, OOM) costs this cell one
                    # retry off-pool; genuine task exceptions propagate
                    if not self.supervised.retire(future):
                        raise
            return await asyncio.get_running_loop().run_in_executor(
                self._serial, fn, dict(spec_payload))

    def close(self) -> None:
        self.supervised.shutdown()
        self._serial.shutdown(wait=True)
