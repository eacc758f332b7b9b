"""The campaign job service and its raw-asyncio HTTP front end.

:class:`JobService` is the engine: it owns the tenant namespaces, the
durable :class:`~repro.serve.queue.JobJournal`, the
:class:`~repro.serve.queue.WorkerPool` and the
:class:`~repro.serve.dedup.CellResolver`, and drives each accepted job
cell-by-cell, publishing SSE frames to the job's
:class:`~repro.serve.sse.EventBroker`.  The journal records a job on
acceptance and when it ends; a cell's result lives in the tenant cache
only.  On start-up a finished job gets its cells back from the tenant
cache by journaled key (``source="cache"``); an unfinished job, or a
finished one whose cache entries were evicted, is re-expanded from its
request on the running build and requeued, so only cells the cache
lacks compute — the restart-mid-queue contract the acceptance test
pins.  A job whose grid the running build rejects comes back failed.

The service builds its own :class:`~repro.obs.registry.Telemetry` and
hands it to everything it owns (tenant caches, journal, pool, resolver);
cells run with their own per-run registries.

:class:`CampaignServer` speaks just enough HTTP/1.1 over
``asyncio.start_server`` for the JSON API (stdlib only, one request per
connection):

====== =============================  =======================================
POST   ``/v1/jobs``                   submit a grid; 202 + job summary
GET    ``/v1/jobs``                   all job summaries
GET    ``/v1/jobs/<id>``              one job summary (404 unknown)
GET    ``/v1/jobs/<id>/result``       campaign-style results; 409 until done
GET    ``/v1/jobs/<id>/events``       SSE progress stream (replays history)
GET    ``/v1/tenants``                per-tenant cache accounting
GET    ``/v1/metrics``                the service telemetry counters
GET    ``/v1/healthz``                liveness + degraded-pool flag
====== =============================  =======================================

SSE event schema (``data:`` is sorted-key JSON): ``job`` (lifecycle
transitions), ``cell`` (one resolved cell: index, cache key, source,
progress counts), ``metrics`` (service counter snapshot), ``trace``
(forwarded ``repro.obs`` span/instant events, only with tracing on) and
the terminal ``done``, after which the stream ends — every connection is
ended with ``shutdown`` before ``close``, so a client sees end-of-stream
even when a pool worker forked meanwhile still holds the descriptor.

``SIGTERM`` and ``SIGINT`` stop :func:`run_server` the same way: running
jobs drain, the journal is flushed and the worker pool is shut down.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import signal
import socket
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro._version import __version__
from repro.obs.config import ObsConfig
from repro.obs.log import log_event
from repro.obs.registry import Telemetry
from repro.serve.dedup import CellResolver
from repro.serve.queue import (
    Job,
    JobCell,
    JobJournal,
    WorkerPool,
    expand_cells,
)
from repro.serve.sse import EventBroker
from repro.serve.tenants import TenantManager, TenantNameError

logger = logging.getLogger(__name__)

__all__ = [
    "CampaignServer",
    "DEFAULT_ROOT",
    "JobService",
    "ServeConfig",
    "run_server",
]

#: default service state directory (journal + tenant caches)
DEFAULT_ROOT = ".repro-serve"

#: request bodies above this are refused with 413 (a grid is tiny JSON)
MAX_BODY_BYTES = 8 * 1024 * 1024

#: seconds a peer gets to deliver its whole request (head and declared
#: body); a client that stalls past it is answered 408 and disconnected
#: instead of pinning a handler task and a socket until the server exits
REQUEST_READ_SECONDS = 30.0


@dataclass(frozen=True)
class ServeConfig:
    """Static configuration of one service instance."""

    host: str = "127.0.0.1"
    port: int = 8765
    root: str = DEFAULT_ROOT
    #: concurrent worker processes for cell computation
    jobs: int = 1
    #: per-tenant cache byte budget (None = unbounded)
    tenant_max_bytes: Optional[int] = None
    #: bound of the cross-tenant in-memory result memo
    memo_entries: int = 256
    #: record spans/events and forward them over SSE ``trace`` frames
    trace: bool = False


class JobService:
    """Accepts campaign grids and resolves them cell-by-cell."""

    def __init__(self, config: ServeConfig,
                 task_fn: Optional[Callable] = None) -> None:
        self.config = config
        self.obs = Telemetry(ObsConfig(enabled=True, trace=config.trace))
        self.tenants = TenantManager(
            os.path.join(config.root, "tenants"),
            max_bytes_per_tenant=config.tenant_max_bytes,
            obs=self.obs)
        self.journal = JobJournal(config.root, obs=self.obs)
        self.pool = WorkerPool(config.jobs, task_fn=task_fn, obs=self.obs)
        self.resolver = CellResolver(self.tenants, self.pool, self.obs,
                                     memo_entries=config.memo_entries)
        self.jobs: Dict[str, Job] = {}
        self.brokers: Dict[str, EventBroker] = {}
        self._tasks: Dict[str, "asyncio.Task"] = {}
        #: per-job cursor into ``obs.events`` for SSE trace forwarding
        self._trace_cursor: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Adopt the journal: restore finished jobs, requeue the rest."""
        records = await asyncio.to_thread(self.journal.load)
        for job_id in sorted(records):
            try:
                job = await asyncio.to_thread(
                    self._recover, records[job_id])
            except (KeyError, TypeError, ValueError) as exc:
                log_event(
                    "serve.journal_job_malformed",
                    "dropping malformed journaled job %s: %s", job_id, exc,
                    logger=logger, obs=self.obs)
                continue
            self.jobs[job.job_id] = job
            broker = self._broker(job.job_id)
            self._publish_job(job, broker)
            if job.status == "queued":
                self._tasks[job.job_id] = asyncio.get_running_loop() \
                    .create_task(self._run_job(job))
                continue
            for cell in job.cells:
                if cell.done:
                    self._publish_cell(job, cell, broker)
            self._publish_done(job, broker)

    def _recover(self, record: Dict[str, Any]) -> Job:
        """The job a journal record describes, as this life resumes it.

        A finished job's cells come back from the tenant cache by
        journaled key.  An unfinished job, or a completed one missing a
        cache entry, is re-expanded from its request on the running
        build and queued: its keys name this build, and only cells the
        cache lacks will compute.  A grid an earlier build accepted and
        this one rejects was still acknowledged, so its job comes back
        failed, with the expansion error, rather than vanishing.
        """
        job = Job.from_journal(record)
        cache = self.tenants.get(job.tenant).cache
        if job.status in ("completed", "failed"):
            for cell in job.cells:
                entry = cache.get(cell.key)
                if entry is not None and isinstance(entry.get("result"),
                                                    dict):
                    cell.spec_payload = entry.get("spec")
                    cell.result = entry["result"]
                    cell.source = "cache"
            if job.status == "failed" or all(c.done for c in job.cells):
                return job
        try:
            job.cells = expand_cells(job.request)
        except ValueError as exc:
            job.status = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            log_event(
                "serve.job_failed",
                "job %s failed: %s", job.job_id, job.error, logger=logger,
                obs=self.obs)
            return job
        job.status = "queued"
        return job

    async def wait(self) -> None:
        """Block until every queued/running job reaches a terminal state."""
        tasks = [task for task in self._tasks.values() if not task.done()]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def close(self) -> None:
        """Drain running jobs, flush the journal, release the pool."""
        await self.wait()
        await asyncio.to_thread(self.journal.flush)
        self.pool.close()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    async def submit(self, request: Dict[str, Any]) -> Job:
        """Accept one grid; the job is journaled before this returns.

        Raises :class:`ValueError` / :class:`TenantNameError` for a
        malformed submission (the HTTP layer maps both to 400).
        """
        cells = await asyncio.to_thread(expand_cells, request)
        tenant = self.tenants.get(request.get("tenant")).name
        job = Job(job_id=self.journal.new_job_id(), tenant=tenant,
                  request=dict(request), cells=cells)
        self.jobs[job.job_id] = job
        # durability before acknowledgement: the 202 must imply the job
        # survives a SIGKILL'd server
        await asyncio.to_thread(self._journal, job)
        self.obs.count("serve.jobs.accepted")
        broker = self._broker(job.job_id)
        self._publish_job(job, broker)
        self._tasks[job.job_id] = asyncio.get_running_loop() \
            .create_task(self._run_job(job))
        return job

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    async def _run_job(self, job: Job) -> None:
        broker = self._broker(job.job_id)
        job.status = "running"
        self._publish_job(job, broker)
        try:
            for cell in job.cells:
                with self.obs.span("serve.cell", cat="serve",
                                   args={"job": job.job_id,
                                         "index": cell.index}):
                    cell.result, cell.source = await self.resolver.resolve(
                        job.tenant, cell.spec_payload, cell.key)
                self._publish_cell(job, cell, broker)
        except Exception as exc:
            job.status = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            self.obs.count("serve.jobs.failed")
            log_event(
                "serve.job_failed",
                "job %s failed: %s", job.job_id, job.error, logger=logger,
                obs=self.obs)
        else:
            job.status = "completed"
            self.obs.count("serve.jobs.completed")
        await asyncio.to_thread(self._journal, job)
        self._publish_done(job, broker)

    def _journal(self, job: Job) -> None:
        self.journal.record(job.to_journal())
        self.journal.flush()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def result_payload(self, job: Job) -> Dict[str, Any]:
        """Campaign-style result document of a completed job.

        Each entry's ``result`` is the exact cache-layout JSON data the
        offline :class:`~repro.analysis.campaign.Campaign` produces for
        the same spec — the service-parity contract.
        """
        return {
            "job_id": job.job_id,
            "tenant": job.tenant,
            "status": job.status,
            "library_version": __version__,
            "results": [
                {
                    "spec": cell.spec_payload,
                    "cache_key": cell.key,
                    "source": cell.source,
                    "result": cell.result,
                }
                for cell in job.cells
            ],
        }

    # ------------------------------------------------------------------
    # SSE publication
    # ------------------------------------------------------------------
    def _broker(self, job_id: str) -> EventBroker:
        broker = self.brokers.get(job_id)
        if broker is None:
            broker = EventBroker()
            self.brokers[job_id] = broker
            self._trace_cursor[job_id] = len(self.obs.events)
        return broker

    def _publish_job(self, job: Job, broker: EventBroker) -> None:
        broker.publish("job", job.summary())

    def _publish_cell(self, job: Job, cell: JobCell,
                      broker: EventBroker) -> None:
        self._forward_trace(job, broker)
        broker.publish("cell", {
            "job_id": job.job_id,
            "index": cell.index,
            "cache_key": cell.key,
            "source": cell.source,
            "completed": job.completed_cells,
            "cells": len(job.cells),
        })
        broker.publish("metrics", {
            "job_id": job.job_id,
            "counters": self._service_counters(),
        })

    def _publish_done(self, job: Job, broker: EventBroker) -> None:
        self._forward_trace(job, broker)
        broker.publish("done", job.summary())
        broker.close()

    def _forward_trace(self, job: Job, broker: EventBroker) -> None:
        """Forward obs events recorded since this job's cursor as
        ``trace`` frames (tracing runs off by default, then this is a
        no-op)."""
        if not self.obs.tracing:
            return
        cursor = self._trace_cursor.get(job.job_id, 0)
        events = self.obs.events[cursor:]
        self._trace_cursor[job.job_id] = cursor + len(events)
        for event in events:
            broker.publish("trace", {
                "type": event["type"],
                "name": event["name"],
                "cat": event["cat"],
                "args": event["args"],
                "ts": event["ts"],
            })

    def _service_counters(self) -> Dict[str, float]:
        """The service-side counters SSE ``metrics`` frames carry."""
        counters = {}
        for prefix in ("serve.", "campaign.cache.", "exec.pool_rebuilds"):
            for name, value in self.obs.metrics.namespace(prefix).items():
                counters[prefix + name] = value
        return dict(sorted(counters.items()))


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------

class _HttpError(Exception):
    """Maps straight to an error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class CampaignServer:
    """Minimal HTTP/1.1 JSON + SSE front end over ``asyncio.start_server``.

    One request per connection (``Connection: close``): the API is
    low-rate control traffic and the long-lived streams are SSE, so
    keep-alive buys nothing but parser state.
    """

    def __init__(self, service: JobService, config: ServeConfig) -> None:
        self.service = service
        self.config = config
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)

    @property
    def port(self) -> int:
        """The actually bound port (resolves ``port=0`` requests)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        # drain() now returns only once every byte is with the kernel,
        # so the shutdown below can never cut off a buffered tail
        writer.transport.set_write_buffer_limits(high=0)
        try:
            try:
                try:
                    method, path, body = await asyncio.wait_for(
                        self._read_request(reader), REQUEST_READ_SECONDS)
                except asyncio.TimeoutError:
                    raise _HttpError(408, "request not received within "
                                          f"{REQUEST_READ_SECONDS:g} s")
                await self._dispatch(method, path, body, writer)
            except _HttpError as exc:
                await self._respond_json(
                    writer, exc.status, {"error": exc.message})
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            except Exception as exc:  # a handler bug must not kill the loop
                logger.exception("unhandled error serving a request")
                try:
                    await self._respond_json(
                        writer, 500,
                        {"error": f"{type(exc).__name__}: {exc}"})
                except ConnectionError:
                    return
        finally:
            # a pool worker forked while this connection was open holds
            # a copy of its descriptor, so close() alone would never end
            # the stream for the client; shutdown acts on the connection
            # itself, not on this process's descriptor
            try:
                writer.get_extra_info("socket").shutdown(socket.SHUT_RDWR)
            except OSError:  # the peer is already gone
                pass
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Tuple[str, str, bytes]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError(400, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, f"malformed request line {lines[0]!r}")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError:
                raise _HttpError(400, "malformed Content-Length")
            if length < 0:
                raise _HttpError(400, "malformed Content-Length")
            if length > MAX_BODY_BYTES:
                raise _HttpError(413, "request body too large")
            body = await reader.readexactly(length)
        return method, path, body

    # ------------------------------------------------------------------
    async def _dispatch(self, method: str, path: str, body: bytes,
                        writer: asyncio.StreamWriter) -> None:
        service = self.service
        if path == "/v1/jobs":
            if method == "POST":
                return await self._handle_submit(body, writer)
            if method == "GET":
                summaries = [service.jobs[job_id].summary()
                             for job_id in sorted(service.jobs)]
                return await self._respond_json(
                    writer, 200, {"jobs": summaries})
            raise _HttpError(405, f"{method} not allowed on {path}")
        if method != "GET":
            raise _HttpError(405, f"{method} not allowed on {path}")
        if path == "/v1/healthz":
            return await self._respond_json(writer, 200, {
                "status": "ok",
                "version": __version__,
                "jobs": len(service.jobs),
                "degraded": service.pool.degraded,
            })
        if path == "/v1/metrics":
            return await self._respond_json(
                writer, 200, {"metrics": service.obs.metrics.as_dict()})
        if path == "/v1/tenants":
            stats = await asyncio.to_thread(service.tenants.stats)
            return await self._respond_json(writer, 200, {"tenants": stats})
        if path.startswith("/v1/jobs/"):
            return await self._dispatch_job(path, writer)
        raise _HttpError(404, f"unknown path {path!r}")

    async def _dispatch_job(self, path: str,
                            writer: asyncio.StreamWriter) -> None:
        service = self.service
        parts = path[len("/v1/jobs/"):].split("/")
        job = service.jobs.get(parts[0])
        if job is None:
            raise _HttpError(404, f"unknown job {parts[0]!r}")
        if len(parts) == 1:
            return await self._respond_json(writer, 200, job.summary())
        if len(parts) == 2 and parts[1] == "result":
            if job.status == "failed":
                raise _HttpError(500, job.error or "job failed")
            if job.status != "completed":
                raise _HttpError(
                    409, f"job {job.job_id} is {job.status}; the result "
                         "is available once it completes")
            return await self._respond_json(
                writer, 200, service.result_payload(job))
        if len(parts) == 2 and parts[1] == "events":
            return await self._stream_events(job, writer)
        raise _HttpError(404, f"unknown path {path!r}")

    async def _handle_submit(self, body: bytes,
                             writer: asyncio.StreamWriter) -> None:
        try:
            request = json.loads(body.decode("utf-8") or "null")
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HttpError(400, f"request body is not JSON: {exc}")
        try:
            job = await self.service.submit(request)
        except (TenantNameError, ValueError) as exc:
            raise _HttpError(400, str(exc))
        await self._respond_json(writer, 202, job.summary())

    async def _stream_events(self, job: Job,
                             writer: asyncio.StreamWriter) -> None:
        broker = self.service.brokers.get(job.job_id)
        if broker is None:  # pragma: no cover - brokers exist per job
            raise _HttpError(404, f"no event stream for {job.job_id}")
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: text/event-stream\r\n"
                     b"Cache-Control: no-cache\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()
        try:
            async for frame in broker.subscribe():
                writer.write(frame)
                await writer.drain()
        except (ConnectionError, OSError):
            return

    # ------------------------------------------------------------------
    async def _respond_json(self, writer: asyncio.StreamWriter, status: int,
                            payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        reason = _STATUS_TEXT.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

async def _serve(config: ServeConfig) -> None:
    service = JobService(config)
    await service.start()
    server = CampaignServer(service, config)
    await server.start()
    # the line CI wait-loops grep for; printed only once actually bound
    print(f"repro serve listening on http://{config.host}:{server.port}",
          file=sys.stderr, flush=True)
    # SIGTERM (plain `kill`, what supervisors and CI send) stops the
    # service exactly like SIGINT: drain, flush the journal, shut the
    # pool down — so no worker process is left behind
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    try:
        await stop.wait()
    finally:
        await server.stop()
        await service.close()


def run_server(config: ServeConfig) -> int:
    """Run the service until SIGINT/SIGTERM; returns the exit code."""
    asyncio.run(_serve(config))
    return 0
