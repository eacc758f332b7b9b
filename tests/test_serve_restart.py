"""A served cell has one durable record: stopping and restarting the service.

The job journal records jobs (request, status, cell keys) on acceptance
and when they end; a cell's result lives only in the tenant cache.  A
restarted service restores finished jobs from the cache by journaled key
and re-expands unfinished ones from their request on the running build,
so only cells the cache lacks compute.

The cells here run a stand-in ``task_fn`` (a deterministic payload, no
simulation) on the service's in-process worker thread, so a service life
costs milliseconds.  A life is "killed" between two cells by a
:class:`ServerStopped` raised from the task: it is not an ``Exception``,
so no handler of the service runs and the job's terminal journal write
never happens, exactly as when the process dies.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import os
import shutil
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.campaign as campaign_module
import repro.ckpt.format as format_module
from repro.analysis.cache import canonical_json
from repro.analysis.campaign import ExperimentSpec
from repro.baselines.configs import available_configurations
from repro.ckpt.format import read_snapshot
from repro.serve import (
    DEFAULT_TENANT,
    QUEUE_FILENAME,
    JobJournal,
    JobService,
    ServeConfig,
    TenantManager,
    expand_request,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

#: a grid of ``n`` cells: the first ``n`` configurations at one PPC
REQUEST = {"workload": "uniform", "ppc": [1], "steps": 1,
           "n_cell": [4, 4, 4], "tile_size": [4, 4, 4]}


def grid(n):
    return dict(REQUEST, configurations=list(available_configurations()[:n]))


class ServerStopped(BaseException):
    """The server process dies before the next cell computes."""


class Cells:
    """Stand-in ``task_fn``: counts computations per cache key and stops
    the server at the computation after the first ``budget``."""

    def __init__(self, budget=None):
        self.budget = budget
        self.computed = collections.Counter()

    def __call__(self, spec_payload):
        if self.budget is not None \
                and sum(self.computed.values()) >= self.budget:
            raise ServerStopped
        key = ExperimentSpec.from_dict(spec_payload).cache_key()
        self.computed[key] += 1
        return {"configuration": spec_payload["configuration"], "key": key}


def life(root, cells, request=None):
    """One service life: recover the journal, optionally accept
    ``request``, run until idle or stopped.  Returns the service and the
    accepted job."""
    service = JobService(ServeConfig(root=str(root), port=0), task_fn=cells)
    service.pool.supervised.factory = lambda jobs: None

    async def main():
        await service.start()
        job = None if request is None else await service.submit(request)
        await service.wait()
        return job

    try:
        job = asyncio.run(main())
    finally:
        service.pool.close()
    return service, job


@contextlib.contextmanager
def journal_writes(root):
    """Count the atomic writes that land on the journal file."""
    path = os.path.abspath(os.path.join(str(root), QUEUE_FILENAME))
    real = format_module.atomic_write_bytes
    writes = []

    def counting(target, data):
        if os.path.abspath(target) == path:
            writes.append(len(data))
        return real(target, data)

    with mock.patch.object(format_module, "atomic_write_bytes", counting):
        yield writes


def keys_of(request):
    return [spec.cache_key() for spec in expand_request(request)]


def results_of(job):
    return [canonical_json(cell.result) for cell in job.cells]


# ----------------------------------------------------------------------
# generated stop/restart schedules
# ----------------------------------------------------------------------

@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n))))
def test_a_job_stopped_after_k_cells_finishes_in_the_next_life(schedule):
    n, k = schedule
    request = grid(n)
    with tempfile.TemporaryDirectory() as tmp:
        reference = Cells()
        _service, uninterrupted = life(os.path.join(tmp, "ref"),
                                       reference, request)

        root = os.path.join(tmp, "serve")
        first, second = Cells(budget=k), Cells()
        with journal_writes(root) as writes:
            _service, accepted = life(root, first, request)
            assert accepted.completed_cells == k
            assert accepted.status == ("completed" if k == n else "running")
            service2, _ = life(root, second)
        job = service2.jobs[accepted.job_id]

        assert job.status == "completed"
        # every cell computed exactly once across both lives ...
        computed = first.computed + second.computed
        assert sorted(computed) == sorted(keys_of(request))
        assert set(computed.values()) == {1}
        # ... and the results are those of an uninterrupted run
        assert results_of(job) == results_of(uninterrupted)
        # the job was journaled on acceptance and when it ended; an
        # interruption adds no write (the second life writes only the end)
        assert len(writes) == 2
        if k == n:
            assert [cell.source for cell in job.cells] == ["cache"] * n


def test_a_four_cell_job_is_journaled_exactly_twice(tmp_path):
    root = tmp_path / "serve"
    with journal_writes(root) as writes:
        _service, job = life(root, Cells(), grid(4))
    assert job.status == "completed" and job.completed_cells == 4
    assert len(writes) == 2
    # the record names each cell by key; the result is in the cache only
    record = JobJournal(str(root)).load()[job.job_id]
    assert record["cells"] == [{"index": cell.index, "key": cell.key}
                               for cell in job.cells]
    assert set(record) == {"job_id", "tenant", "request", "status",
                           "error", "cells"}


# ----------------------------------------------------------------------
# recovery by case
# ----------------------------------------------------------------------

def test_an_unfinished_job_runs_on_the_new_build_under_its_new_keys(
        tmp_path, monkeypatch):
    """A restart after a code change recomputes the unfinished cells with
    the running build and stores them under that build's keys; the old
    build's entries are not touched."""
    root = tmp_path / "serve"
    request = grid(2)
    monkeypatch.setattr(campaign_module, "_SOURCE_FINGERPRINT", "old-build")
    _service, accepted = life(root, Cells(budget=1), request)
    old_keys = [cell.key for cell in accepted.cells]
    cache = TenantManager(str(root / "tenants")).get(None).cache
    done_path = cache.path_for(old_keys[0])
    with open(done_path, "rb") as stream:
        done_bytes = stream.read()
    done_mtime = os.stat(done_path).st_mtime_ns

    monkeypatch.setattr(campaign_module, "_SOURCE_FINGERPRINT", "new-build")
    new_keys = keys_of(request)
    assert not set(new_keys) & set(old_keys)
    second = Cells()
    service, _ = life(root, second)
    job = service.jobs[accepted.job_id]

    assert job.status == "completed"
    assert [cell.key for cell in job.cells] == new_keys
    assert sorted(second.computed) == sorted(new_keys)
    assert all(cache.get(key) is not None for key in new_keys)
    # the old build's finished cell is as it was, and nothing landed
    # under the old key of the cell it never ran
    with open(done_path, "rb") as stream:
        assert stream.read() == done_bytes
    assert os.stat(done_path).st_mtime_ns == done_mtime
    assert not os.path.exists(cache.path_for(old_keys[1]))


def test_a_completed_job_missing_a_cache_entry_is_requeued(tmp_path):
    root = tmp_path / "serve"
    _service, done = life(root, Cells(), grid(2))
    cache = TenantManager(str(root / "tenants")).get(None).cache
    assert cache.discard(done.cells[1].key)  # evicted before the restart

    second = Cells()
    service, _ = life(root, second)
    job = service.jobs[done.job_id]
    assert job.status == "completed"
    assert list(second.computed) == [done.cells[1].key]
    assert [cell.source for cell in job.cells] == ["cache", "computed"]
    assert results_of(job) == results_of(done)


def test_a_failed_job_comes_back_failed_with_its_finished_cells(tmp_path):
    first = Cells()

    def fail_second(spec_payload):
        if spec_payload["configuration"] != available_configurations()[0]:
            raise RuntimeError("injected cell failure")
        return first(spec_payload)

    root = tmp_path / "serve"
    _service, failed = life(root, fail_second, grid(2))
    assert failed.status == "failed" and failed.completed_cells == 1

    second = Cells()
    service, _ = life(root, second)
    job = service.jobs[failed.job_id]
    assert (job.status, job.error) == ("failed", failed.error)
    assert not second.computed
    assert [cell.source for cell in job.cells] == ["cache", None]
    assert job.cells[0].result == failed.cells[0].result
    assert canonical_json(job.cells[0].spec_payload) \
        == canonical_json(failed.cells[0].spec_payload)


def test_an_unfinished_job_this_build_rejects_comes_back_failed(tmp_path):
    """A journal written by a build that accepted a grid this build
    rejects (one 4^3 tile cannot split into 3 subdomains): the job was
    acknowledged, so it is restored failed with the expansion error, not
    dropped, and nothing computes."""
    request = dict(grid(1), domains=[3, 1, 1])
    with pytest.raises(ValueError) as rejection:
        expand_request(request)
    root = tmp_path / "serve"
    journal = JobJournal(str(root))
    journal.record({"job_id": journal.new_job_id(), "tenant": DEFAULT_TENANT,
                    "request": request, "status": "queued", "error": None,
                    "cells": [{"index": 0, "key": "0" * 64}]})
    journal.flush()

    cells = Cells()
    service, _ = life(root, cells)
    job = service.jobs["job-000001"]
    assert (job.status, job.error) \
        == ("failed", f"ValueError: {rejection.value}")
    assert "cannot split" in job.error
    assert not cells.computed
    assert service.obs.metrics.get("log.serve.job_failed") == 1

    async def frames():
        return [frame.decode() async for frame
                in service.brokers[job.job_id].subscribe()]

    last = asyncio.run(frames())[-1]
    assert "event: done" in last and '"status":"failed"' in last
    assert service.journal.new_job_id() == "job-000002"


def test_a_journal_with_cell_results_still_restores(tmp_path):
    """``serve-queue-cell-results.ckpt`` was written by the journal format
    that stored every cell's ``spec``, ``result`` and ``source``: job 1
    (tenant alice) completed with both cells, job 2 (tenant bob, PPC 8)
    running with its first cell done.  That format also stored each
    completed cell in the tenant cache, which the test re-creates."""
    root = tmp_path / "serve"
    root.mkdir()
    path = str(root / QUEUE_FILENAME)
    shutil.copy(os.path.join(GOLDEN, "serve-queue-cell-results.ckpt"), path)
    jobs = read_snapshot(path)[0]["jobs"]
    completed, unfinished = jobs["job-000001"], jobs["job-000002"]
    tenants = TenantManager(str(root / "tenants"))
    for job in (completed, unfinished):
        for cell in job["cells"]:
            if cell["result"] is not None:
                tenants.get(job["tenant"]).cache.put(
                    cell["key"], cell["spec"], cell["result"])

    second = Cells()
    service, _ = life(root, second)

    restored = service.jobs["job-000001"]
    assert restored.status == "completed"
    assert [cell.source for cell in restored.cells] == ["cache", "cache"]
    assert results_of(restored) == [canonical_json(cell["result"])
                                    for cell in completed["cells"]]
    # the unfinished job is re-expanded on this build: its journaled
    # spec, source and result (keyed for another build) play no part
    requeued = service.jobs["job-000002"]
    assert requeued.status == "completed"
    assert [cell.key for cell in requeued.cells] \
        == keys_of(unfinished["request"])
    assert sorted(second.computed) == sorted(keys_of(unfinished["request"]))
    record = JobJournal(str(root)).load()["job-000002"]
    assert [sorted(cell) for cell in record["cells"]] == [["index", "key"]] * 2
    assert service.journal.new_job_id() == "job-000003"
