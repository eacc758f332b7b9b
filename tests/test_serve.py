"""Tests for repro.serve: SSE, tenants, dedup, queue, service, HTTP."""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from urllib.request import Request, urlopen

import pytest

from repro.analysis.cache import canonical_json
from repro.analysis.campaign import Campaign, spec_for_workload
from repro.ckpt.faults import (
    SPEC_KILL_MARKER_ENV,
    BrokenPoolOnce,
    KillSwitch,
    flip_byte,
)
from repro.exec.pool import make_process_pool
from repro.obs import ObsConfig, Telemetry
from repro.serve import (
    CampaignServer,
    EventBroker,
    JobJournal,
    JobService,
    ResultMemo,
    ServeConfig,
    TenantManager,
    TenantNameError,
    WorkerPool,
    expand_request,
    format_sse,
    validate_tenant_name,
)
from repro.workloads.uniform import UniformPlasmaWorkload

from helpers import log_events

#: the 2-cell grid most service tests submit (tiny but a real simulation)
GRID = {
    "workload": "uniform",
    "ppc": [1],
    "configurations": ["Baseline", "Baseline+IncrSort"],
    "steps": 1,
    "n_cell": [4, 4, 4],
    "tile_size": [4, 4, 4],
}


def config_for(tmp_path, **overrides):
    params = dict(root=str(tmp_path / "serve"), port=0, jobs=1)
    params.update(overrides)
    return ServeConfig(**params)


def offline_results(request):
    """The per-cell result payloads Campaign.run produces for a grid."""
    outcome = Campaign(expand_request(request), cache=None).run()
    return [entry.result.to_json() for entry in outcome.entries]


def deterministic(result_payload):
    """Canonical form of a result's reproducible fields (timing varies)."""
    from repro.analysis.metrics import ExperimentResult

    return canonical_json(
        ExperimentResult.from_json(result_payload).deterministic_fields())


# ----------------------------------------------------------------------
# SSE
# ----------------------------------------------------------------------

class TestSSE:
    def test_frame_format(self):
        frame = format_sse({"b": 2, "a": 1}, event="cell", event_id=7)
        assert frame == b'event: cell\nid: 7\ndata: {"a":1,"b":2}\n\n'
        assert format_sse({}) == b"data: {}\n\n"

    def test_broker_replays_history_to_late_subscribers(self):
        async def main():
            broker = EventBroker()
            broker.publish("job", {"n": 0})
            broker.publish("cell", {"n": 1})
            broker.close()
            return [frame async for frame in broker.subscribe()]

        frames = asyncio.run(main())
        assert len(frames) == 2
        assert b"event: job" in frames[0] and b"event: cell" in frames[1]

    def test_broker_live_fanout_and_close(self):
        async def main():
            broker = EventBroker()
            broker.publish("job", {"n": 0})

            async def consume():
                return [frame async for frame in broker.subscribe()]

            task = asyncio.ensure_future(consume())
            await asyncio.sleep(0)  # let the subscriber register
            broker.publish("cell", {"n": 1})
            broker.close()
            assert broker.publish("late", {}) == b""  # closed -> no-op
            return await task

        frames = asyncio.run(main())
        assert len(frames) == 2  # one replayed + one live

    def test_broker_bounds_history(self):
        async def main():
            broker = EventBroker(history_limit=2)
            for n in range(5):
                broker.publish("cell", {"n": n})
            assert len(broker) == 2
            assert broker.dropped == 3
            broker.close()
            frames = [frame async for frame in broker.subscribe()]
            # ids survive the drop, making the gap visible
            assert b"id: 3" in frames[0] and b"id: 4" in frames[1]

        asyncio.run(main())

    def test_history_limit_validation(self):
        with pytest.raises(ValueError):
            EventBroker(history_limit=0)


# ----------------------------------------------------------------------
# Tenants
# ----------------------------------------------------------------------

class TestTenants:
    @pytest.mark.parametrize("name", ["public", "a", "team-1", "A.b_c"])
    def test_valid_names(self, name):
        assert validate_tenant_name(name) == name

    @pytest.mark.parametrize("name", [
        "", ".", "..", ".hidden", "-x", "a/b", "a\\b", "a b",
        "x" * 65, None, 7,
    ])
    def test_invalid_names(self, name):
        with pytest.raises(TenantNameError):
            validate_tenant_name(name)

    def test_namespaces_are_isolated_directories(self, tmp_path):
        manager = TenantManager(str(tmp_path))
        alice, bob = manager.get("alice"), manager.get("bob")
        alice.store("a" * 64, {"spec": 1}, {"r": 1})
        bob.store("b" * 64, {"spec": 2}, {"r": 2})
        assert alice.cache.get("a" * 64) is not None
        assert bob.cache.get("a" * 64) is None
        assert set(manager.known()) == {"alice", "bob"}
        # a fresh manager over the same root rediscovers them from disk
        assert set(TenantManager(str(tmp_path)).known()) == {"alice", "bob"}

    def test_byte_budget_evicts_lru_and_counts(self, tmp_path):
        from repro.obs import ObsConfig, Telemetry

        obs = Telemetry(ObsConfig(enabled=True))
        manager = TenantManager(str(tmp_path), max_bytes_per_tenant=1,
                                obs=obs)
        namespace = manager.get("alice")
        namespace.store("a" * 64, {}, {"r": 1})
        # a 1-byte budget evicts the entry straight back out
        assert namespace.cache.size_stats()["entries"] == 0
        assert obs.metrics.get("serve.tenant.evictions") == 1
        assert obs.metrics.get("serve.tenant.evicted_bytes") > 0
        stats = namespace.stats()
        assert stats["max_bytes"] == 1 and stats["tenant"] == "alice"

    def test_manager_rejects_negative_budget(self, tmp_path):
        with pytest.raises(ValueError):
            TenantManager(str(tmp_path), max_bytes_per_tenant=-1)


# ----------------------------------------------------------------------
# Grid expansion
# ----------------------------------------------------------------------

class TestExpandRequest:
    def test_matches_cli_expansion_and_cache_keys(self):
        specs = expand_request(GRID)
        workload = UniformPlasmaWorkload(
            n_cell=(4, 4, 4), tile_size=(4, 4, 4), ppc=1, max_steps=1)
        expected = [
            spec_for_workload(workload, name, steps=1)
            for name in GRID["configurations"]
        ]
        assert [s.cache_key() for s in specs] \
            == [s.cache_key() for s in expected]

    def test_defaults_mirror_campaign_cli(self):
        specs = expand_request({})
        # CLI defaults: ppc 8,64 x "Baseline","MatrixPIC (FullOpt)"
        assert len(specs) == 4
        assert specs[0].steps == 2 and specs[0].warmup_steps == 1
        assert specs[0].scramble is True
        assert specs[0].workload_params["seed"] == 2026
        # nesting order: workloads outer, configurations inner
        assert [s.workload_params["ppc"] for s in specs] == [8, 8, 64, 64]

    def test_scalar_ppc_is_accepted(self):
        specs = expand_request({"ppc": 8, "configurations": ["Baseline"]})
        assert len(specs) == 1

    @pytest.mark.parametrize("request_patch", [
        {"bogus": 1},
        {"workload": "exotic"},
        {"configurations": []},
        {"configurations": ["NoSuchConfig"]},
        {"configurations": "Baseline"},
        {"ppc": []},
        {"ppc": [0]},
        {"ppc": [5]},  # not expressible as an integer triple
        {"ppc": True},
        {"steps": -1},
        {"steps": "2"},
        {"scramble": "yes"},
        {"kernel_tier": "warp"},
        {"shape_order": 4},
        {"workload": "lwfa", "shape_order": 2},
        {"n_cell": [4, 4]},
    ])
    def test_rejects_malformed_requests(self, request_patch):
        with pytest.raises(ValueError):
            expand_request({**GRID, **request_patch})

    def test_rejects_non_mapping(self):
        with pytest.raises(ValueError):
            expand_request([1, 2])

    @pytest.mark.parametrize("key, value", [
        ("n_cell", 5),                 # was a TypeError, i.e. an HTTP 500
        ("n_cell", [8, 8, None]),      # likewise
        ("n_cell", "888"),             # was coerced to (8, 8, 8)
        ("domains", [2.7, 1, 1]),      # was coerced to (2, 1, 1)
        ("tile_size", [True, 8, 8]),   # was coerced to (1, 8, 8)
    ])
    def test_grid_triples_are_validated_not_coerced(self, key, value):
        with pytest.raises(ValueError, match=key):
            expand_request({**GRID, key: value})


# ----------------------------------------------------------------------
# Dedup primitives
# ----------------------------------------------------------------------

class TestResultMemo:
    def test_lru_bound_and_touch(self):
        memo = ResultMemo(max_entries=2)
        memo.put("a", {"n": 1})
        memo.put("b", {"n": 2})
        assert memo.get("a") == {"n": 1}  # touch: "a" is now newest
        memo.put("c", {"n": 3})
        assert "b" not in memo and "a" in memo and "c" in memo
        assert len(memo) == 2

    def test_zero_entries_disables_memoization(self):
        memo = ResultMemo(max_entries=0)
        memo.put("a", {"n": 1})
        assert memo.get("a") is None
        with pytest.raises(ValueError):
            ResultMemo(max_entries=-1)


# ----------------------------------------------------------------------
# Worker pool
# ----------------------------------------------------------------------

class TestWorkerPool:
    """WorkerPool's own behaviour; the recovery schedules themselves are
    pinned once in tests/test_supervised_pool.py."""

    def pool_with(self, factory, **kwargs):
        """A WorkerPool whose supervisor asks ``factory`` for its pools."""
        pool = WorkerPool(**kwargs)
        pool.supervised.factory = factory
        return pool

    def run_cells(self, pool, payloads):
        async def main():
            return await asyncio.gather(
                *(pool.run(payload) for payload in payloads))

        try:
            return asyncio.run(main())
        finally:
            pool.close()

    def test_unavailable_pool_degrades_to_serial_thread(self):
        import threading

        def where(payload):
            return threading.current_thread().name

        pool = self.pool_with(lambda jobs: None, jobs=2, task_fn=where)
        names = self.run_cells(pool, [{"n": 1}, {"n": 2}])
        # off-pool cells are serialized on the one in-process worker
        assert len(set(names)) == 1 and names[0].startswith("serve-cell")
        assert pool.degraded

    def test_worker_death_retries_once_and_rebuilds(self):
        from repro.obs import ObsConfig, Telemetry

        obs = Telemetry(ObsConfig(enabled=True))
        pools = [BrokenPoolOnce(fail="result", at=0),
                 BrokenPoolOnce(fail="result", at=-1)]  # never breaks
        pool = self.pool_with(lambda jobs: pools.pop(0), jobs=1,
                              task_fn=lambda payload: dict(payload), obs=obs)
        assert self.run_cells(pool, [{"n": 1}, {"n": 2}]) \
            == [{"n": 1}, {"n": 2}]
        assert not pool.degraded
        assert pool.supervised.pool_failures == 1
        assert pool.supervised.owner == "serve"
        assert not pools  # the second (healthy) pool was built
        assert obs.metrics.get("exec.pool_rebuilds") == 1

    def test_task_exception_propagates_without_degrading(self):
        def boom(payload):
            raise OSError("experiment failed")  # not "fork is blocked"

        pool = self.pool_with(
            lambda jobs: BrokenPoolOnce(fail="result", at=-1),
            jobs=1, task_fn=boom)
        with pytest.raises(OSError, match="experiment failed"):
            self.run_cells(pool, [{"n": 1}])
        assert not pool.degraded and pool.supervised.pool_failures == 0

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            WorkerPool(jobs=0)


# ----------------------------------------------------------------------
# Job journal
# ----------------------------------------------------------------------

class TestJobJournal:
    def test_round_trip_and_id_sequence(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        assert journal.load() == {}
        first = journal.new_job_id()
        journal.record({"job_id": first, "status": "queued"})
        assert first == "job-000001"

        reloaded = JobJournal(str(tmp_path))
        records = reloaded.load()
        assert records[first]["status"] == "queued"
        # the sequence counter survives: ids are never reused
        assert reloaded.new_job_id() == "job-000002"

    def test_corrupt_journal_degrades_to_empty(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.new_job_id()
        journal.record({"job_id": "job-000001", "status": "queued"})
        flip_byte(journal.path)
        obs = Telemetry(ObsConfig(trace=True))
        assert JobJournal(str(tmp_path), obs=obs).load() == {}
        (event,) = log_events(obs, "recordlog.unusable")
        assert event["kind"] == "serve-queue"

    def test_rejects_nonpositive_interval(self, tmp_path):
        with pytest.raises(ValueError):
            JobJournal(str(tmp_path), every=0)


# ----------------------------------------------------------------------
# Service: dedup, parity, restart, worker faults
# ----------------------------------------------------------------------

class TestJobService:
    def test_concurrent_jobs_compute_each_unique_cell_once(self, tmp_path):
        """N concurrent jobs sharing cells -> one computation per cell,
        bitwise identical to a direct Campaign.run."""
        service = JobService(config_for(tmp_path))

        async def main():
            await service.start()
            jobs = await asyncio.gather(
                *(service.submit(dict(GRID)) for _ in range(3)))
            await service.wait()
            await service.close()
            return jobs

        jobs = asyncio.run(main())
        assert all(job.status == "completed" for job in jobs)
        metrics = service.obs.metrics
        # exactly one computation per unique cell, pinned by the miss
        # counter; every other resolution came from a dedup layer
        assert metrics.get("campaign.cache.misses") == len(GRID["configurations"])
        assert metrics.get("serve.cells.computed") == len(GRID["configurations"])
        duplicates = (metrics.get("serve.cells.inflight_hits")
                      + metrics.get("serve.cells.memo_hits")
                      + metrics.get("serve.cells.cache_hits"))
        assert duplicates == 2 * len(GRID["configurations"])

        expected = offline_results(GRID)
        for job in jobs:
            got = [cell.result for cell in job.cells]
            assert [deterministic(r) for r in got] \
                == [deterministic(r) for r in expected]

    def test_second_tenant_is_pure_dedup(self, tmp_path):
        service = JobService(config_for(tmp_path))

        async def main():
            await service.start()
            await service.submit(dict(GRID, tenant="alice"))
            await service.wait()
            job = await service.submit(dict(GRID, tenant="bob"))
            await service.wait()
            await service.close()
            return job

        job = asyncio.run(main())
        assert all(cell.source in ("memo", "inflight", "cache")
                   for cell in job.cells)
        assert service.obs.metrics.get("serve.cells.computed") \
            == len(GRID["configurations"])
        # bob's namespace adopted the results on disk
        bob = service.tenants.get("bob")
        assert bob.cache.size_stats()["entries"] == len(job.cells)

    def test_restart_mid_queue_loses_and_duplicates_nothing(self, tmp_path):
        """An accepted-but-unexecuted job survives a dead server: the
        restarted service recomputes only cells no prior life finished."""
        config = config_for(tmp_path)
        shared = {"workload": "uniform", "ppc": [1],
                  "configurations": ["Baseline"], "steps": 1,
                  "n_cell": [4, 4, 4], "tile_size": [4, 4, 4]}

        service1 = JobService(config)

        async def first_life():
            await service1.start()
            done = await service1.submit(dict(shared))
            await service1.wait()
            # accepted (journaled by the 202 contract) but never run:
            # the server dies before the cell executes
            accepted = await service1.submit(dict(GRID))
            return done, accepted

        done, accepted = asyncio.run(first_life())
        assert done.status == "completed"
        assert accepted.completed_cells == 0
        service1.pool.close()

        service2 = JobService(config)

        async def second_life():
            await service2.start()
            await service2.wait()
            await service2.close()

        asyncio.run(second_life())
        rerun = service2.jobs[accepted.job_id]
        assert rerun.status == "completed"
        # the cell the first life completed replays from the adopted
        # journal/cache; only the genuinely new cell computes
        assert service2.obs.metrics.get("serve.cells.computed") == 1
        assert service2.obs.metrics.get("serve.cells.journal_adopted") == 1
        sources = [cell.source for cell in rerun.cells]
        assert sorted(sources) == ["cache", "computed"]
        # the finished job is intact and queryable after the restart
        replayed = service2.jobs[done.job_id]
        assert replayed.status == "completed"
        assert [canonical_json(c.result) for c in replayed.cells] \
            == [canonical_json(c.result) for c in done.cells]
        # results match the offline campaign's reproducible fields
        assert [deterministic(c.result) for c in rerun.cells] \
            == [deterministic(r) for r in offline_results(GRID)]

    def test_sigkilled_worker_retries_once_and_completes(
            self, tmp_path, monkeypatch):
        """A SIGKILL'd worker process costs one rebuild, not the job."""
        probe = make_process_pool(2)
        if probe is None:
            pytest.skip("process pools unavailable in this sandbox")
        probe.shutdown(wait=False)
        import repro.analysis.campaign as campaign_module
        from repro.ckpt.faults import killing_spec_executor

        marker = tmp_path / "kill-marker"
        KillSwitch(str(marker)).arm()
        monkeypatch.setenv(SPEC_KILL_MARKER_ENV, str(marker))
        monkeypatch.setattr(campaign_module, "_execute_spec_payload",
                            killing_spec_executor)

        request = {"workload": "uniform", "ppc": [1],
                   "configurations": ["Baseline"], "steps": 1,
                   "n_cell": [4, 4, 4], "tile_size": [4, 4, 4]}
        service = JobService(config_for(tmp_path, jobs=2))

        async def main():
            await service.start()
            job = await service.submit(dict(request))
            await service.wait()
            await service.close()
            return job

        job = asyncio.run(main())
        assert job.status == "completed"
        assert not marker.exists()  # the switch fired exactly once
        assert service.pool.supervised.pool_failures == 1
        assert not service.pool.degraded
        assert service.obs.metrics.get("exec.pool_rebuilds") == 1
        monkeypatch.undo()
        assert [deterministic(cell.result) for cell in job.cells] \
            == [deterministic(r) for r in offline_results(request)]

    def test_failed_cell_fails_the_job_not_the_service(self, tmp_path):
        def boom(payload):
            raise RuntimeError("injected cell failure")

        service = JobService(config_for(tmp_path), task_fn=boom)
        service.pool.supervised.factory = lambda jobs: None

        async def main():
            await service.start()
            failed = await service.submit(dict(GRID))
            await service.wait()
            return failed

        job = asyncio.run(main())
        assert job.status == "failed"
        assert "injected cell failure" in job.error
        assert service.obs.metrics.get("serve.jobs.failed") == 1
        service.pool.close()

    def test_invalid_tenant_is_rejected_before_acceptance(self, tmp_path):
        service = JobService(config_for(tmp_path))

        async def main():
            await service.start()
            with pytest.raises(TenantNameError):
                await service.submit(dict(GRID, tenant="../escape"))
            await service.close()

        asyncio.run(main())
        assert service.obs.metrics.get("serve.jobs.accepted") == 0


# ----------------------------------------------------------------------
# HTTP + SSE end to end
# ----------------------------------------------------------------------

async def http_json(port, method, path, body=None):
    """One request against localhost; returns (status, parsed body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    writer.write((f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
                  f"Content-Length: {len(payload)}\r\n\r\n").encode()
                 + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body_bytes = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body_bytes) if body_bytes else None


async def http_sse(port, path):
    """Stream an SSE endpoint to termination; returns (event, data) list."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    _head, _, stream = raw.partition(b"\r\n\r\n")
    frames = []
    for block in stream.decode("utf-8").split("\n\n"):
        event, data = None, None
        for line in block.splitlines():
            if line.startswith("event: "):
                event = line[len("event: "):]
            elif line.startswith("data: "):
                data = json.loads(line[len("data: "):])
        if event is not None:
            frames.append((event, data))
    return frames


class TestHttpServer:
    def serve(self, tmp_path, scenario, task_fn=None, **config_overrides):
        """Run ``scenario(service, port)`` against a live server; with a
        ``task_fn`` the cells run in-process (no process pool)."""
        config = config_for(tmp_path, **config_overrides)

        async def main():
            service = JobService(config, task_fn=task_fn)
            if task_fn is not None:
                service.pool.supervised.factory = lambda jobs: None
            await service.start()
            server = CampaignServer(service, config)
            await server.start()
            try:
                return await scenario(service, server.port)
            finally:
                await server.stop()
                await service.close()

        return asyncio.run(main())

    def test_end_to_end_submit_stream_result(self, tmp_path):
        async def scenario(service, port):
            status, health = await http_json(port, "GET", "/v1/healthz")
            assert status == 200 and health["status"] == "ok"

            status, job = await http_json(port, "POST", "/v1/jobs", GRID)
            assert status == 202
            assert job["status"] == "queued" and job["cells"] == 2
            job_id = job["job_id"]

            # streaming to completion observes the full lifecycle
            frames = await http_sse(port, f"/v1/jobs/{job_id}/events")
            events = [event for event, _data in frames]
            assert events[0] == "job" and events[-1] == "done"
            assert events.count("cell") == 2
            cell_frames = [d for e, d in frames if e == "cell"]
            assert [d["index"] for d in cell_frames] == [0, 1]
            assert all(d["source"] == "computed" for d in cell_frames)
            metrics_frames = [d for e, d in frames if e == "metrics"]
            assert metrics_frames[-1]["counters"]["serve.cells.computed"] == 2

            status, summary = await http_json(
                port, "GET", f"/v1/jobs/{job_id}")
            assert status == 200 and summary["status"] == "completed"

            status, result = await http_json(
                port, "GET", f"/v1/jobs/{job_id}/result")
            assert status == 200
            assert [deterministic(r["result"]) for r in result["results"]] \
                == [deterministic(r) for r in offline_results(GRID)]

            status, listing = await http_json(port, "GET", "/v1/jobs")
            assert status == 200 and len(listing["jobs"]) == 1
            return None

        self.serve(tmp_path, scenario)

    def test_result_is_409_until_completed(self, tmp_path):
        import threading

        gate = threading.Event()

        def gated(payload):
            gate.wait(timeout=30)
            return dict(payload)

        async def scenario(service, port):
            status, job = await http_json(port, "POST", "/v1/jobs", GRID)
            # the cells are parked on the gate: the job cannot be done
            status, body = await http_json(
                port, "GET", f"/v1/jobs/{job['job_id']}/result")
            assert status == 409 and "error" in body
            gate.set()
            await service.wait()
            status, body = await http_json(
                port, "GET", f"/v1/jobs/{job['job_id']}/result")
            assert status == 200 and body["status"] == "completed"
            return None

        self.serve(tmp_path, scenario, task_fn=gated)

    def test_http_error_mapping(self, tmp_path, numba_missing):
        async def scenario(service, port):
            status, body = await http_json(port, "GET", "/v1/nope")
            assert status == 404
            status, body = await http_json(port, "GET", "/v1/jobs/job-9")
            assert status == 404
            status, body = await http_json(port, "DELETE", "/v1/jobs")
            assert status == 405
            status, body = await http_json(
                port, "POST", "/v1/jobs", {"bogus": 1})
            assert status == 400 and "bogus" in body["error"]
            status, body = await http_json(
                port, "POST", "/v1/jobs", dict(GRID, tenant="../x"))
            assert status == 400 and "tenant" in body["error"]
            status, body = await http_json(port, "POST", "/v1/jobs", [1])
            assert status == 400
            status, body = await http_json(
                port, "POST", "/v1/jobs", dict(GRID, n_cell=5))
            assert status == 400 and "n_cell" in body["error"]
            # a tier that cannot run here is refused at submit, never
            # accepted and failed later
            status, body = await http_json(
                port, "POST", "/v1/jobs", dict(GRID, kernel_tier="fused"))
            assert status == 400 and "not available" in body["error"]
            assert service.obs.metrics.get("serve.jobs.accepted") == 0
            return None

        self.serve(tmp_path, scenario)

    def test_stalled_client_gets_408_and_is_disconnected(
            self, tmp_path, monkeypatch):
        import repro.serve.server as server_module

        monkeypatch.setattr(server_module, "REQUEST_READ_SECONDS", 0.5)

        async def scenario(service, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            # a Content-Length the peer never fulfils
            writer.write(b"POST /v1/jobs HTTP/1.1\r\n"
                         b"Content-Length: 10\r\n\r\nabc")
            await writer.drain()
            # the stalled connection does not hold up a well-formed one
            status, health = await http_json(port, "GET", "/v1/healthz")
            assert status == 200 and health["status"] == "ok"
            # 408, then EOF (unbounded reads hang here: fail, not wedge)
            raw = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            head, _, body = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 408 Request Timeout")
            assert "not received" in json.loads(body)["error"]
            return None

        self.serve(tmp_path, scenario, task_fn=dict)

    def test_two_tenants_share_computation_but_not_caches(self, tmp_path):
        async def scenario(service, port):
            for tenant in ("alice", "bob"):
                status, job = await http_json(
                    port, "POST", "/v1/jobs", dict(GRID, tenant=tenant))
                assert status == 202
                frames = await http_sse(
                    port, f"/v1/jobs/{job['job_id']}/events")
                assert frames[-1][0] == "done"
                assert frames[-1][1]["status"] == "completed"

            status, body = await http_json(port, "GET", "/v1/metrics")
            assert body["metrics"]["serve.cells.computed"] == 2
            status, body = await http_json(port, "GET", "/v1/tenants")
            tenants = body["tenants"]
            assert set(tenants) == {"alice", "bob"}
            assert tenants["alice"]["entries"] == 2
            assert tenants["bob"]["entries"] == 2
            return None

        self.serve(tmp_path, scenario)

    def test_stream_reaches_eof_for_a_subscriber_older_than_the_pool(
            self, tmp_path):
        """A worker forked while an SSE connection is open inherits its
        descriptor; the stream must still *end* after ``done`` (read to
        end of stream here, not to the ``done`` frame)."""
        probe = make_process_pool(1)
        if probe is None:
            pytest.skip("process pools unavailable in this sandbox")
        probe.shutdown(wait=False)

        async def scenario(service, port):
            subscribed = asyncio.Event()
            pool_run = service.pool.run

            async def run_after_subscribe(payload):
                await subscribed.wait()  # park the cell: nothing forked yet
                return await pool_run(payload)

            service.pool.run = run_after_subscribe
            status, job = await http_json(port, "POST", "/v1/jobs", GRID)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(f"GET /v1/jobs/{job['job_id']}/events HTTP/1.1\r\n"
                         "Host: localhost\r\n\r\n".encode())
            await writer.drain()
            # accepted and streaming before the pool's first fork
            await asyncio.wait_for(reader.readuntil(b"event: job"), 30)
            subscribed.set()
            rest = await asyncio.wait_for(reader.read(), 60)
            writer.close()
            assert rest.count(b"event: cell") == 2
            assert b"event: done" in rest
            assert service.pool.supervised.pool_failures == 0
            return None

        self.serve(tmp_path, scenario)

    def test_sse_replays_history_for_finished_jobs(self, tmp_path):
        async def scenario(service, port):
            status, job = await http_json(port, "POST", "/v1/jobs", GRID)
            await service.wait()  # finish before anyone subscribes
            frames = await http_sse(
                port, f"/v1/jobs/{job['job_id']}/events")
            events = [event for event, _data in frames]
            assert events[-1] == "done" and events.count("cell") == 2
            return None

        self.serve(tmp_path, scenario)


# ----------------------------------------------------------------------
# the real process: signals and worker lifetime
# ----------------------------------------------------------------------

def group_members(group):
    """Live (non-zombie) pids whose process group is ``group``."""
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
            continue
        if fields[0] != "Z" and int(fields[2]) == group:
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="needs /proc to list a process group")
class TestServeProcess:
    def test_sigterm_drains_and_leaves_no_worker_behind(self, tmp_path):
        probe = make_process_pool(1)
        if probe is None:
            pytest.skip("process pools unavailable in this sandbox")
        probe.shutdown(wait=False)
        log_path = tmp_path / "serve.log"
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        with open(log_path, "wb") as log:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--jobs", "2", "--root", str(tmp_path / "root")],
                stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                env=dict(os.environ, PYTHONPATH=src),
                start_new_session=True)  # pid == process group id
        group = process.pid
        try:
            port = 0
            deadline = time.monotonic() + 60
            while not port:
                assert process.poll() is None, log_path.read_text()
                assert time.monotonic() < deadline, log_path.read_text()
                for line in log_path.read_text().splitlines():
                    if "listening on http://" in line:
                        port = int(line.rsplit(":", 1)[1])
                time.sleep(0.02)
            base = f"http://127.0.0.1:{port}"
            grid = dict(GRID, configurations=["Baseline"])  # one cell
            request = Request(base + "/v1/jobs", method="POST",
                              data=json.dumps(grid).encode("utf-8"))
            with urlopen(request, timeout=60) as response:
                job = json.loads(response.read())
            with urlopen(base + f"/v1/jobs/{job['job_id']}/events",
                         timeout=60) as response:
                stream = response.read().decode("utf-8")
            assert "event: done" in stream
            with urlopen(base + f"/v1/jobs/{job['job_id']}",
                         timeout=60) as response:
                assert json.loads(response.read())["status"] == "completed"
            # the cell ran in a pool worker, and the pool is still up
            assert len(group_members(group)) > 1

            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0, log_path.read_text()
            assert group_members(group) == []
            assert os.path.exists(tmp_path / "root" / "serve-queue.ckpt")
        finally:
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestServeCli:
    def test_serve_command_is_wired(self, monkeypatch):
        from repro.cli import main

        captured = {}

        def fake_run_server(config):
            captured["config"] = config
            return 0

        # cmd_serve imports run_server from the package at call time
        import repro.serve as serve_package
        monkeypatch.setattr(serve_package, "run_server", fake_run_server)
        assert main(["serve", "--port", "0", "--root", "state",
                     "--jobs", "3", "--tenant-max-bytes", "1024",
                     "--trace"]) == 0
        config = captured["config"]
        assert config.port == 0 and config.root == "state"
        assert config.jobs == 3 and config.tenant_max_bytes == 1024
        assert config.trace is True
