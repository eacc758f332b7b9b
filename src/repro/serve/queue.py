"""Job model, grid expansion, durable queue journal, worker pool.

A submission is a declarative campaign grid (the same workload x PPC x
configuration space as ``python -m repro campaign``);
:func:`expand_request` turns it into :class:`~repro.analysis.campaign
.ExperimentSpec` cells using the *identical* defaults and nesting order
as the CLI — same expansion, same ``cache_key()``, so HTTP submissions
and CLI sweeps share campaign cache entries.

Accepted jobs are durable before the ``202`` goes out: the
:class:`JobJournal` persists every job (request, expanded cells,
completed results) in a :class:`repro.ckpt.recordlog.RecordLog` — the
same checksummed, torn-write-tolerant record file the campaign progress
checkpoint uses — so a server killed mid-queue restarts, re-adopts the
journal, requeues unfinished jobs and recomputes only the cells that
never completed (no accepted cell is lost, none runs twice).

Cache misses execute on a :class:`WorkerPool`: a
:class:`repro.exec.pool.SupervisedPool` (which owns worker death,
rebuild-once and permanent degrade — see there) bounded by an asyncio
semaphore.  Cells the pool cannot take run one at a time on a single
in-process worker thread.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.analysis.campaign import ExperimentSpec, spec_for_workload
from repro.ckpt.recordlog import RecordLog
from repro.exec.pool import SupervisedPool
from repro.obs.registry import NULL_TELEMETRY, Telemetry
from repro.workloads import GRID_CHOICES, GRID_DEFAULTS, workload_for_family

__all__ = [
    "Job",
    "JobCell",
    "JobJournal",
    "QUEUE_FILENAME",
    "WorkerPool",
    "expand_request",
]

#: queue journal filename inside the service root directory
QUEUE_FILENAME = "serve-queue.ckpt"

_QUEUE_KIND = "serve-queue"
_QUEUE_VERSION = 1

#: job lifecycle states
JOB_STATES = ("queued", "running", "completed", "failed")


# ----------------------------------------------------------------------
# Grid expansion (HTTP request -> ExperimentSpec cells)
# ----------------------------------------------------------------------

#: every key a submission may carry; anything else is a 400 (typos in a
#: grid silently expanding to the default would poison cache parity)
REQUEST_KEYS = frozenset({
    "tenant", "workload", "ppc", "configurations", "steps",
    "warmup_steps", "seed", "scramble", "shape_order", "n_cell",
    "tile_size", "domains",
})


def _int_value(request: Mapping, key: str) -> int:
    value = request.get(key, GRID_DEFAULTS[key])
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{key} must be >= 0, got {value}")
    return value


def _choice(request: Mapping, key: str) -> Any:
    default = GRID_DEFAULTS.get(key)
    value = request.get(key, default)
    if value not in (default, *GRID_CHOICES[key]):
        raise ValueError(
            f"{key} must be one of {list(GRID_CHOICES[key])}, got {value!r}")
    return value


def _int_sequence(request: Mapping, key: str) -> List[int]:
    value = request.get(key, GRID_DEFAULTS[key])
    if isinstance(value, int) and not isinstance(value, bool):
        value = [value]
    if (not isinstance(value, (list, tuple)) or not value
            or any(isinstance(v, bool) or not isinstance(v, int) or v <= 0
                   for v in value)):
        raise ValueError(
            f"{key} must be a positive integer or a non-empty list of "
            f"positive integers, got {value!r}")
    return list(value)


def expand_request(request: Mapping) -> List[ExperimentSpec]:
    """Expand a submission grid into specs, mirroring the campaign CLI.

    Defaults, validation and nesting order (workloads outer,
    configurations inner) all match ``python -m repro campaign``, so the
    cells hash to the same cache keys.  Raises :class:`ValueError` for
    anything malformed — unknown keys, unknown configuration names, a
    PPC outside the paper's scan, ``shape_order`` on the lwfa workload.
    """
    from repro.baselines.configs import available_configurations

    if not isinstance(request, Mapping):
        raise ValueError(
            f"submission must be a JSON object, got {type(request).__name__}")
    unknown = sorted(set(request) - REQUEST_KEYS)
    if unknown:
        raise ValueError(
            f"unknown submission key(s) {unknown}; "
            f"valid keys: {sorted(REQUEST_KEYS)}")

    workload_family = _choice(request, "workload")
    configurations = request.get(
        "configurations", GRID_DEFAULTS["configurations"])
    if (not isinstance(configurations, (list, tuple)) or not configurations
            or any(not isinstance(name, str) for name in configurations)):
        raise ValueError(
            "configurations must be a non-empty list of configuration "
            f"names, got {configurations!r}")
    bad = [name for name in configurations
           if name not in available_configurations()]
    if bad:
        raise ValueError(
            f"unknown configuration(s) {bad}; "
            f"valid names: {list(available_configurations())}")

    ppc_scan = _int_sequence(request, "ppc")
    steps = _int_value(request, "steps")
    warmup_steps = _int_value(request, "warmup_steps")
    seed = _int_value(request, "seed")
    scramble = request.get("scramble", True)
    if not isinstance(scramble, bool):
        raise ValueError(f"scramble must be a boolean, got {scramble!r}")
    shape_order = _choice(request, "shape_order")

    workloads = [
        workload_for_family(
            workload_family, ppc=ppc, max_steps=steps, seed=seed,
            domains=request.get("domains"),
            n_cell=request.get("n_cell"),
            tile_size=request.get("tile_size"),
            shape_order=shape_order)
        for ppc in ppc_scan
    ]
    return [
        spec_for_workload(workload, configuration, steps=steps,
                          warmup_steps=warmup_steps, scramble=scramble)
        for workload in workloads
        for configuration in configurations
    ]


# ----------------------------------------------------------------------
# Job model
# ----------------------------------------------------------------------

@dataclass
class JobCell:
    """One expanded grid cell of a job, plus its resolution state."""

    index: int
    spec_payload: Dict[str, Any]
    key: str
    #: provenance once resolved: cache | inflight | memo | computed | journal
    source: Optional[str] = None
    result: Optional[Dict[str, Any]] = None

    @property
    def done(self) -> bool:
        return self.result is not None


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
        """JSON-able journal record (full request + per-cell results)."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "request": self.request,
            "status": self.status,
            "error": self.error,
            "cells": [
                {
                    "index": cell.index,
                    "spec": cell.spec_payload,
                    "key": cell.key,
                    "source": cell.source,
                    "result": cell.result,
                }
                for cell in self.cells
            ],
        }

    @classmethod
    def from_journal(cls, payload: Mapping) -> "Job":
        cells = [
            JobCell(
                index=int(entry["index"]),
                spec_payload=dict(entry["spec"]),
                key=str(entry["key"]),
                source=entry.get("source"),
                result=entry.get("result"),
            )
            for entry in payload["cells"]
        ]
        status = str(payload.get("status", "queued"))
        if status not in JOB_STATES:
            status = "queued"
        return cls(
            job_id=str(payload["job_id"]),
            tenant=str(payload["tenant"]),
            request=dict(payload.get("request", {})),
            cells=cells,
            status=status,
            error=payload.get("error"),
        )


# ----------------------------------------------------------------------
# Durable queue journal
# ----------------------------------------------------------------------

class JobJournal:
    """Crash-durable record of every accepted job and its progress.

    One :class:`~repro.ckpt.recordlog.RecordLog` file holds the job-id
    sequence counter plus each job's full record; ``record`` buffers an
    upsert and rewrites the file every ``every`` records (``flush``
    forces it).  The submission path flushes *before* acknowledging, so
    an accepted job is on disk by the time the client sees its 202.
    A corrupt or torn journal downgrades to "empty queue" with a logged
    warning — exactly the campaign-progress recovery contract.
    """

    def __init__(self, directory: str, every: int = 1,
                 obs: Telemetry = NULL_TELEMETRY) -> None:
        self.path = os.path.join(str(directory), QUEUE_FILENAME)
        self._log = RecordLog(self.path, kind=_QUEUE_KIND, field="jobs",
                              version=_QUEUE_VERSION, every=every, obs=obs)
        self._log.extra["next_seq"] = 1

    def load(self) -> Dict[str, Dict[str, Any]]:
        """Adopt the on-disk journal; returns ``{job_id: record}``."""
        return self._log.load()

    def new_job_id(self) -> str:
        """The next job id; the counter itself is journaled, so ids are
        never reused across restarts."""
        seq = max(int(self._log.extra["next_seq"]), 1)
        self._log.extra["next_seq"] = seq + 1
        self._log.touch()
        return f"job-{seq:06d}"

    def record(self, job_payload: Mapping) -> None:
        """Buffer one job upsert; rewrites the file on the interval."""
        self._log.put(str(job_payload["job_id"]), dict(job_payload))

    def flush(self) -> None:
        """Atomically rewrite the journal if anything is buffered
        (best-effort: an unwritable directory is a logged warning, it
        never fails the job itself)."""
        self._log.flush()


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
        (:func:`repro.ckpt.faults.killing_spec_executor`) reach the
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
