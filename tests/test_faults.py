"""Fault injection: worker death, torn writes, kill-and-resume recovery.

Every failure mode the checkpoint/restart subsystem claims to survive is
injected deterministically here (:mod:`repro.ckpt.faults`) and the
recovery contract asserted: retried work produces the same results as an
undisturbed run, corrupt state is detected rather than trusted, and a
SIGKILL'd campaign auto-resumes to identical deterministic output.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.campaign import Campaign
from repro.ckpt.faults import (
    SPEC_KILL_MARKER_ENV,
    BrokenPoolOnce,
    KillSwitch,
    chaos_shard_task,
    flip_byte,
    killing_spec_executor,
    truncate_file,
)
from repro.ckpt.progress import CampaignProgress
from repro.exec.base import TileTask
from repro.exec.pool import SupervisedPool, make_process_pool
from repro.obs import ObsConfig, Telemetry
from repro.obs.registry import NULL_TELEMETRY
from repro.workloads.uniform import UniformPlasmaWorkload

from helpers import log_events

HAVE_PROCESS_POOLS = make_process_pool(2) is not None


def _square(x):
    return x * x


def square_tasks(n=6):
    return [TileTask(_square, (i,)) for i in range(n)]


def small_workloads(count=2):
    return [UniformPlasmaWorkload(n_cell=(4, 4, 4), tile_size=(4, 4, 4),
                                  ppc=ppc, max_steps=1)
            for ppc in (1, 8, 27, 64)[:count]]


def make_campaign(tmp_path, *, workloads=2, resume=False, jobs=1,
                  checkpoint=True, obs=NULL_TELEMETRY):
    return Campaign.from_grid(
        small_workloads(workloads), ["Baseline"], steps=1, warmup_steps=0,
        jobs=jobs,
        checkpoint_dir=str(tmp_path / "ck") if checkpoint else None,
        resume=resume, obs=obs)


def result_fields(outcome):
    """Deterministic per-cell payloads (timing dropped)."""
    return [entry.result.deterministic_fields() for entry in outcome]


# ----------------------------------------------------------------------
# fixtures of the harness itself
# ----------------------------------------------------------------------

class TestHarness:
    def test_kill_switch_lifecycle(self, tmp_path):
        switch = KillSwitch(str(tmp_path / "marker"))
        assert not switch.armed
        switch.arm()
        assert switch.armed
        switch.disarm()
        assert not switch.armed
        assert switch.fire() is False  # unarmed: must not kill us

    def test_truncate_and_flip(self, tmp_path):
        path = str(tmp_path / "blob")
        with open(path, "wb") as fh:
            fh.write(bytes(range(100)))
        assert truncate_file(path) == 50
        assert os.path.getsize(path) == 50
        offset = flip_byte(path)
        data = open(path, "rb").read()
        assert data[offset] == (offset ^ 0xFF)
        with open(path, "wb"):
            pass
        with pytest.raises(ValueError):
            flip_byte(path)

    def test_broken_pool_once_validates_mode(self):
        with pytest.raises(ValueError):
            BrokenPoolOnce(fail="never")


# ----------------------------------------------------------------------
# task-batch recovery (the schedules live in tests/test_supervised_pool.py;
# here: a batch of tasks through the supervisor with telemetry and the
# owner tag, and a real SIGKILL)
# ----------------------------------------------------------------------

class TestExecutorRecovery:
    def test_worker_death_mid_task_recovers_inline(self):
        obs = Telemetry(ObsConfig(trace=True))
        pool = SupervisedPool(2, owner="executor", obs=obs)
        fake = BrokenPoolOnce(fail="result", at=2)
        pool.factory = lambda max_workers: fake
        results = pool.run(square_tasks())
        assert results == [i * i for i in range(6)]
        assert fake.broke and fake.submitted == 6
        assert pool.pool_failures == 1
        assert not pool.degraded  # one incident is forgiven
        assert obs.metrics.get("exec.pool_rebuilds") == 1
        (event,) = log_events(obs, "pool.rebuild")
        assert event["owner"] == "executor"

    @pytest.mark.skipif(not HAVE_PROCESS_POOLS,
                        reason="process pools unavailable in this sandbox")
    def test_real_sigkilled_worker_recovers(self, tmp_path):
        """A genuinely SIGKILL'd worker process: the pool recomputes the
        lost tasks inline and later batches run in a fresh pool."""
        switch = KillSwitch(str(tmp_path / "marker"))
        switch.arm()
        obs = Telemetry(ObsConfig(trace=True))
        pool = SupervisedPool(2, owner="executor", obs=obs)
        tasks = [TileTask(chaos_shard_task, (switch.path, i))
                 for i in range(4)]
        try:
            results = pool.run(tasks)
            assert results == [0, 1, 2, 3]
            assert pool.pool_failures == 1
            assert not pool.degraded
            assert len(log_events(obs, "pool.rebuild")) == 1
            # next batch gets a rebuilt pool and completes clean
            assert pool.run(tasks) == [0, 1, 2, 3]
            assert pool.pool_failures == 1
        finally:
            pool.shutdown()
            switch.disarm()


# ----------------------------------------------------------------------
# campaign pool recovery
# ----------------------------------------------------------------------

class TestCampaignPoolRecovery:
    def test_worker_death_mid_cell_retries_serially(self):
        reference = result_fields(Campaign.from_grid(
            small_workloads(3), ["Baseline"], steps=1,
            warmup_steps=0).run())
        campaign = Campaign.from_grid(
            small_workloads(3), ["Baseline"], steps=1, warmup_steps=0,
            jobs=2)
        fake = BrokenPoolOnce(fail="result", at=1)
        campaign.pool.factory = lambda max_workers: fake
        outcome = campaign.run()
        assert result_fields(outcome) == reference
        assert fake.broke and fake.submitted == 3
        # some cell of this run ran off-pool
        assert campaign.degraded and outcome.degraded
        assert campaign.pool.owner == "campaign"
        assert campaign.pool.pool_failures == 1


# ----------------------------------------------------------------------
# campaign checkpoint / auto-resume
# ----------------------------------------------------------------------

class TestCampaignResume:
    def test_interrupted_campaign_resumes_identically(self, tmp_path):
        reference = result_fields(make_campaign(tmp_path / "ref",
                                                workloads=4).run())
        # "crash" after two of four cells: run a smaller grid sharing the
        # same checkpoint directory, then resume the full grid
        partial = make_campaign(tmp_path, workloads=2)
        partial.run()
        progress = CampaignProgress(str(tmp_path / "ck"))
        assert len(progress.load()) == 2

        resumed = make_campaign(tmp_path, workloads=4, resume=True).run()
        flags = [entry.resumed for entry in resumed]
        assert flags == [True, True, False, False]
        assert all(not entry.cache_hit for entry in resumed)
        assert result_fields(resumed) == reference

    def test_resumed_entries_survive_into_json(self, tmp_path):
        make_campaign(tmp_path, workloads=1).run()
        outcome = make_campaign(tmp_path, workloads=1, resume=True).run()
        row = outcome.to_json()["results"][0]
        assert row["resumed"] is True

    def test_corrupt_progress_file_recomputes(self, tmp_path):
        reference = result_fields(make_campaign(tmp_path / "ref",
                                                workloads=2).run())
        campaign = make_campaign(tmp_path, workloads=2)
        campaign.run()
        flip_byte(str(tmp_path / "ck" / "campaign.ckpt"))
        obs = Telemetry(ObsConfig(trace=True))
        resumed = make_campaign(tmp_path, workloads=2, resume=True,
                                obs=obs).run()
        (event,) = log_events(obs, "recordlog.unusable")
        assert event["kind"] == "campaign-progress"
        assert [entry.resumed for entry in resumed] == [False, False]
        assert result_fields(resumed) == reference

    def test_truncated_progress_file_recomputes(self, tmp_path):
        campaign = make_campaign(tmp_path, workloads=1)
        campaign.run()
        truncate_file(str(tmp_path / "ck" / "campaign.ckpt"))
        resumed = make_campaign(tmp_path, workloads=1, resume=True).run()
        assert [entry.resumed for entry in resumed] == [False]

    def test_progress_interval_buffers_then_flushes(self, tmp_path):
        progress = CampaignProgress(str(tmp_path), every=2)
        progress.record("k1", {"spec": 1}, {"r": 1})
        assert not os.path.exists(progress.path)  # buffered below interval
        progress.record("k2", {"spec": 2}, {"r": 2})
        assert os.path.exists(progress.path)
        loaded = CampaignProgress(str(tmp_path)).load()
        assert set(loaded) == {"k1", "k2"}
        progress.flush()  # clean: must be a no-op, not a rewrite
        mtime = os.path.getmtime(progress.path)
        progress.flush()
        assert os.path.getmtime(progress.path) == mtime

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="requires a checkpoint_dir"):
            Campaign([], resume=True)

    @pytest.mark.skipif(not HAVE_PROCESS_POOLS,
                        reason="process pools unavailable in this sandbox")
    def test_sigkilled_campaign_worker_retries_once(self, tmp_path,
                                                    monkeypatch):
        """A campaign worker process SIGKILL'd mid-cell: the pool breaks,
        the cell is retried serially, results match the clean run."""
        import repro.analysis.campaign as campaign_module

        reference = result_fields(Campaign.from_grid(
            small_workloads(2), ["Baseline"], steps=1,
            warmup_steps=0).run())
        switch = KillSwitch(str(tmp_path / "marker"))
        switch.arm()
        monkeypatch.setenv(SPEC_KILL_MARKER_ENV, switch.path)
        monkeypatch.setattr(campaign_module, "_execute_spec_payload",
                            killing_spec_executor)
        obs = Telemetry(ObsConfig(trace=True))
        campaign = Campaign.from_grid(
            small_workloads(2), ["Baseline"], steps=1, warmup_steps=0,
            jobs=2, obs=obs)
        try:
            outcome = campaign.run()
        finally:
            switch.disarm()
        assert result_fields(outcome) == reference
        assert campaign.degraded
        (event,) = log_events(obs, "pool.rebuild")
        assert event["owner"] == "campaign"


# ----------------------------------------------------------------------
# cache durability (satellite: fsync before and after the rename)
# ----------------------------------------------------------------------

class TestCacheDurability:
    def test_put_fsyncs_file_and_directory(self, tmp_path, monkeypatch):
        from repro.analysis.cache import ResultCache

        synced = []
        real_fsync = os.fsync

        def spying_fsync(fd):
            synced.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spying_fsync)
        cache = ResultCache(str(tmp_path / "cache"))
        key = "ab" + "0" * 62
        assert cache.put(key, {"spec": 1}, {"result": 2}) is not None
        # one fsync for the temp file's bytes, one for the directory
        # entry after the rename
        assert len(synced) == 2
        assert cache.get(key)["result"] == {"result": 2}
