"""The ``serve-grid`` workload: ``python -m repro serve`` under a closed
loop of one client, one connection at a time.

Distinct small grids are submitted in three phases — cold as tenant
``a``, resubmitted as ``a`` (tenant-cache hits), resubmitted as ``b``
(cross-tenant memo hits).  The simulation layers do little per cell;
parse, journal, dedup, pool and SSE do the rest, and the hit phases
bypass compute entirely.  Each job is POST -> SSE until the ``done``
frame -> GET result, timed at each boundary by the client; the trace is
built from those timestamps afterwards, so the traced and the untraced
pass run the very same code.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.analysis.cache import ResultCache
from repro.analysis.campaign import run_spec
from repro.analysis.metrics import ExperimentResult
from repro.serve import QUEUE_FILENAME, JobJournal, expand_request

from bench.harness import (
    ROOT,
    Result,
    RunFailed,
    SpeedProbe,
    Tracer,
    scratch_directory,
    write_trace,
)

#: servers started per run; ``setup_s`` is the median
SETUP_REPEATS = 5
#: a job not done by then counts as failed
JOB_TIMEOUT = 60.0
#: shares of ``--seconds``: cold jobs, then the same cells computed in
#: process (the correctness gate, and the base of ``serve.overhead_s``);
#: the two hit phases take what is left, a tenth of a cold job per job
COLD_SHARE = 0.42
MIN_JOBS = 3
HOST = "127.0.0.1"


def grid_request(index: int, seed: int, tenant: str, smoke: bool
                 ) -> Dict[str, Any]:
    return {
        "tenant": tenant,
        "workload": "uniform",
        "n_cell": [8, 8, 8],
        "tile_size": [4, 4, 4],
        "ppc": [8] if smoke else [8, 64],
        "configurations": ["Baseline", "MatrixPIC (FullOpt)"],
        "steps": 2,
        "seed": seed + index,
    }


# ----------------------------------------------------------------------
# server lifecycle
# ----------------------------------------------------------------------

class Server:
    """One ``python -m repro serve`` in its own session (process group).

    Started on port 0 with a fresh root; the bound port is read from the
    ``listening`` line.  Stopped with SIGINT — the one signal on which
    the service drains and shuts its worker pool down — after which
    whatever is left in the group is counted as orphaned and killed.
    """

    def __init__(self, directory: str) -> None:
        os.makedirs(directory)
        self.root = os.path.join(directory, "root")
        self.log_path = os.path.join(directory, "server.log")
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Spawn and wait for the first 200 on ``/v1/healthz``; returns
        the seconds that took."""
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([environment["PYTHONPATH"]]
                                   if environment.get("PYTHONPATH") else []))
        start = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host", HOST,
                 "--port", "0", "--jobs", "1", "--root", self.root],
                stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                env=environment, start_new_session=True)
        deadline = start + 30.0
        while not self.port:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited: {self.log()}")
            if time.perf_counter() > deadline:
                raise RuntimeError(f"server never listened: {self.log()}")
            for line in self.log().splitlines():
                if "listening on http://" in line:
                    self.port = int(line.rsplit(":", 1)[1])
            if not self.port:
                time.sleep(0.005)
        status, _body = self.request("GET", "/v1/healthz")
        if status != 200:
            raise RuntimeError(f"healthz answered {status}")
        return time.perf_counter() - start

    def log(self) -> str:
        with open(self.log_path, "r", encoding="utf-8",
                  errors="replace") as stream:
            return stream.read()

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None):
        """One request on its own connection; ``(status, json)``."""
        connection = http.client.HTTPConnection(HOST, self.port,
                                                timeout=JOB_TIMEOUT)
        try:
            payload = None if body is None else json.dumps(body)
            connection.request(method, path, body=payload)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def wait_done(self, job_id: str, on_cell) -> Dict[str, Any]:
        """Read the job's SSE stream until the ``done`` frame.

        Never until end of stream: a subscriber connected before the
        worker pool's first fork has its socket inherited by the worker,
        so the stream does not end when the server closes its side.
        """
        connection = http.client.HTTPConnection(HOST, self.port,
                                                timeout=JOB_TIMEOUT)
        try:
            connection.request("GET", f"/v1/jobs/{job_id}/events")
            response = connection.getresponse()
            event = None
            while True:
                line = response.fp.readline()
                if not line:
                    raise ConnectionError("event stream ended before done")
                text = line.decode("utf-8").rstrip("\n")
                if text.startswith("event: "):
                    event = text[len("event: "):]
                elif text.startswith("data: "):
                    if event == "cell":
                        on_cell()
                    elif event == "done":
                        return json.loads(text[len("data: "):])
        finally:
            connection.close()

    def stop(self) -> int:
        """SIGINT, wait, then kill the group; returns how many worker
        processes outlived the server."""
        process = self.process
        if process is None:
            return 0
        self.process = None
        group = process.pid  # start_new_session: pid == pgid == sid
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                pass
        orphans = [pid for pid in group_members(group) if pid != process.pid]
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        deadline = time.perf_counter() + 10.0
        while group_members(group) and time.perf_counter() < deadline:
            time.sleep(0.01)
        return len(orphans)


def group_members(group: int) -> List[int]:
    """Live (non-zombie) processes whose process group is ``group``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii",
                      errors="replace") as stream:
                # "pid (comm) state ppid pgrp ...": comm may hold spaces
                fields = stream.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while we looked
        if fields[0] != "Z" and int(fields[2]) == group:
            members.append(int(entry))
    return members


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------

@dataclass
class JobTimes:
    """Client-side timestamps of one job, in ``perf_counter`` seconds."""

    phase: str
    #: the machine's speed factor when the job was sent
    factor: float
    posted: float
    accepted: float = 0.0
    first_cell: float = 0.0
    done: float = 0.0
    fetched: float = 0.0

    @property
    def seconds(self) -> float:
        """POST sent -> result in hand, at reference speed."""
        return (self.fetched - self.posted) * self.factor


def run_job(server: Server, request: Dict[str, Any], phase: str,
            result: Result, probe: SpeedProbe):
    """POST -> SSE until ``done`` -> GET result; one operation.  The
    phases build on one another, so a failed job ends the run."""
    times = JobTimes(phase, probe.factor(), time.perf_counter())
    try:
        status, summary = server.request("POST", "/v1/jobs", request)
        times.accepted = time.perf_counter()
        if status != 202:
            raise RuntimeError(f"POST answered {status}: {summary}")

        def on_cell() -> None:
            if not times.first_cell:
                times.first_cell = time.perf_counter()

        done = server.wait_done(summary["job_id"], on_cell)
        times.done = time.perf_counter()
        if done["status"] != "completed":
            raise RuntimeError(f"job ended {done['status']}: {done['error']}")
        status, payload = server.request(
            "GET", f"/v1/jobs/{summary['job_id']}/result")
        times.fetched = time.perf_counter()
        if status != 200:
            raise RuntimeError(f"result answered {status}: {payload}")
    except (OSError, RuntimeError, ValueError, KeyError,
            http.client.HTTPException) as exc:
        result.operation(False, f"{phase} job seed {request['seed']}: "
                                f"{type(exc).__name__}: {exc}")
        raise RunFailed from None
    result.operation(True)
    return times, payload


def run(seed: int, seconds: float, trace: bool, smoke: bool) -> Result:
    result = Result()
    probe = SpeedProbe()
    server: Optional[Server] = None
    with scratch_directory("serve-") as directory:
        try:
            setups = []
            for repeat in range(1 if trace else SETUP_REPEATS):
                if server is not None:
                    server.stop()
                server = Server(os.path.join(directory, f"server-{repeat}"))
                factor = probe.measure()
                setups.append(server.start() * factor)
            if not trace:
                result.timing("setup_s", setups, clock="calibrated")
            closed_loop(server, result, probe, seed, seconds, trace, smoke)
        except RunFailed:
            pass  # counted where it happened; the record says which job
        finally:
            if server is not None:
                server.stop()
    return result


def closed_loop(server: Server, result: Result, probe: SpeedProbe, seed: int,
                seconds: float, trace: bool, smoke: bool) -> None:
    # phase 1: cold, as tenant a, for the cold share of the time box
    cold: List[JobTimes] = []
    served: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + COLD_SHARE * seconds
    while len(cold) < MIN_JOBS or time.perf_counter() < deadline:
        times, payload = run_job(
            server, grid_request(len(cold), seed, "a", smoke), "cold", result,
            probe)
        cold.append(times)
        served.append(payload)
    cells = sum(len(payload["results"]) for payload in served)

    # the same cells in process: every served cell must equal it
    compute = verify_cells(result, probe, served, seed, smoke)

    # phases 2 and 3: the same grids again, as a and then as b
    hits: Dict[str, List[JobTimes]] = {"hit": [], "memo": []}
    sources = []
    for phase, tenant in (("hit", "a"), ("memo", "b")):
        for index in range(len(cold)):
            times, payload = run_job(
                server, grid_request(index, seed, tenant, smoke), phase,
                result, probe)
            hits[phase].append(times)
            sources += [entry["source"] for entry in payload["results"]]
    _status, metrics = server.request("GET", "/v1/metrics")
    counters = metrics["metrics"]
    journal_bytes = os.path.getsize(os.path.join(server.root, QUEUE_FILENAME))
    orphans = server.stop()

    jobs = cold + hits["hit"] + hits["memo"]
    result.facts.update(jobs=len(jobs), cold_jobs=len(cold), cells=cells,
                        counters={name: value
                                  for name, value in counters.items()
                                  if name.startswith("serve.")})
    hit_share = (sum(source in ("cache", "memo") for source in sources)
                 / len(sources))
    result.gate("resubmissions_hit", hit_share == 1.0,
                f"{hit_share:.3f} of resubmitted cells were dedup hits")
    cold_s = [job.seconds for job in cold]
    if not trace:
        # one client, one job at a time: the cold phase is its jobs
        result.timing("op_s", cold_s, clock="calibrated")
        result.value("work_per_s", cells / sum(cold_s), "calibrated",
                     n=len(cold))
        return

    accepts = [job.accepted - job.posted for job in jobs]
    result.timing("serve.accept_s", accepts)
    result.timing("serve.accept_first10_s", accepts[:10])
    result.timing("serve.accept_last10_s", accepts[-10:])
    result.timing("serve.first_cell_s",
                [job.first_cell - job.posted for job in cold])
    result.timing("serve.job_hit_s", [job.seconds for job in hits["hit"]],
                clock="calibrated")
    result.timing("serve.job_memo_s", [job.seconds for job in hits["memo"]],
                clock="calibrated")
    result.timing("serve.result_fetch_s",
                [job.fetched - job.done for job in jobs])
    result.timing("analysis.cell_compute_s", compute, clock="calibrated")
    cells_per_job = cells / len(cold)
    result.value("serve.overhead_s",
                 statistics.median(cold_s)
                 - cells_per_job * statistics.median(compute),
                 "calibrated", n=len(cold))
    result.value("serve.journal_bytes", journal_bytes, "count")
    result.value("serve.cells_computed",
                 counters.get("serve.cells.computed", 0.0), "count")
    result.value("serve.cells_cache_hits",
                 counters.get("serve.cells.cache_hits", 0.0), "count")
    result.value("serve.cells_memo_hits",
                 counters.get("serve.cells.memo_hits", 0.0), "count")
    result.value("serve.dedup_hit_share", hit_share, "count")
    result.value("serve.orphan_workers", orphans, "count")
    direct_calls(result, served, seed, smoke)
    write_trace(result, job_trace(jobs), "serve-grid")


def verify_cells(result: Result, probe: SpeedProbe,
                 served: List[Dict[str, Any]], seed: int, smoke: bool
                 ) -> List[float]:
    """Compute every served cell in process; returns the seconds each
    took, at reference speed.  Deterministic fields must be equal, bit
    for bit."""
    compute = []
    for index, payload in enumerate(served):
        specs = expand_request(grid_request(index, seed, "a", smoke))
        for spec, entry in zip(specs, payload["results"]):
            factor = probe.factor()
            start = time.perf_counter()
            mine = run_spec(spec)
            compute.append((time.perf_counter() - start) * factor)
            theirs = ExperimentResult.from_json(entry["result"])
            result.gate(
                "served_cell_equals_in_process",
                entry["cache_key"] == spec.cache_key()
                and theirs.deterministic_fields()
                == mine.deterministic_fields(),
                f"job {index} cell {spec.label()} {spec.configuration}")
    return compute


def direct_calls(result: Result, served: List[Dict[str, Any]], seed: int,
                 smoke: bool) -> None:
    """Three service parts called directly, outside the server."""
    request = grid_request(0, seed, "a", smoke)
    expands = []
    for _ in range(20):
        start = time.perf_counter()
        expand_request(request)
        expands.append(time.perf_counter() - start)
    result.timing("serve.expand_request_s", expands)

    with scratch_directory("direct-") as directory:
        # a journal as the service holds it after 100 completed jobs
        journal = JobJournal(directory, every=10**9)
        for index in range(100):
            payload = served[index % len(served)]
            journal.record({
                "job_id": f"job-{index + 1:06d}", "tenant": "a",
                "request": request, "status": "completed", "error": None,
                "cells": [{"index": cell, "spec": entry["spec"],
                           "key": entry["cache_key"],
                           "source": entry["source"],
                           "result": entry["result"]}
                          for cell, entry in enumerate(payload["results"])],
            })
        flushes = []
        for _ in range(5):
            journal.record({"job_id": "job-000100", "tenant": "a",
                            "request": request, "status": "completed",
                            "error": None, "cells": []})
            start = time.perf_counter()
            journal.flush()
            flushes.append(time.perf_counter() - start)
        result.timing("serve.journal.flush_s_at_100", flushes)

        cache = ResultCache(os.path.join(directory, "cache"))
        entry = served[0]["results"][0]
        cache.put(entry["cache_key"], entry["spec"], entry["result"])
        gets = []
        for _ in range(50):
            start = time.perf_counter()
            hit = cache.get(entry["cache_key"])
            gets.append(time.perf_counter() - start)
        result.gate("cache_round_trip",
                    hit is not None and hit["result"] == entry["result"])
        result.timing("analysis.cache.get_s", gets)


def job_trace(jobs: List[JobTimes]) -> Tracer:
    """One ``job`` span per job with its three client-side children,
    built from the timestamps the client took anyway."""
    tracer = Tracer()
    for op, job in enumerate(jobs):
        for phase, name, stamp in (
                ("B", f"job.{job.phase}", job.posted),
                ("B", "serve.accept", job.posted),
                ("E", "serve.accept", job.accepted),
                ("B", "serve.events", job.accepted),
                ("E", "serve.events", job.done),
                ("B", "serve.result_fetch", job.done),
                ("E", "serve.result_fetch", job.fetched),
                ("E", f"job.{job.phase}", job.fetched)):
            tracer.events.append((phase, name, stamp, op))
    return tracer
