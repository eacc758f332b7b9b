"""Fault injection: worker death, torn writes, kill-and-resume recovery.

Every failure mode the checkpoint/restart subsystem claims to survive is
injected deterministically here (``tests/faults.py``) and the
recovery contract asserted: retried work produces the same results as an
undisturbed run, corrupt state is detected rather than trusted, and a
killed campaign re-run on the same result cache resumes to identical
deterministic output.
"""

from __future__ import annotations

import functools
import os

import pytest

from repro.analysis.cache import ResultCache
from repro.analysis.campaign import Campaign, expand_request
from faults import (
    SPEC_KILL_MARKER_ENV,
    BrokenPoolOnce,
    KillSwitch,
    chaos_shard_task,
    flip_byte,
    killing_spec_executor,
    truncate_file,
)
from repro.cli import main
from repro.exec.pool import SupervisedPool, make_process_pool
from repro.obs import ObsConfig, Telemetry

from helpers import log_events

HAVE_PROCESS_POOLS = make_process_pool(2) is not None


def _square(x):
    return x * x


def square_tasks(n=6):
    return [functools.partial(_square, i) for i in range(n)]


def small_grid(count=2):
    """``count`` Baseline cells of 4^3 cells in one tile, one step each."""
    return expand_request({
        "workload": "uniform", "n_cell": [4, 4, 4], "tile_size": [4, 4, 4],
        "ppc": [1, 8, 27, 64][:count], "configurations": ["Baseline"],
        "steps": 1, "warmup_steps": 0})


def make_campaign(cache_dir=None, *, workloads=2):
    """A small Baseline grid; ``cache_dir`` None runs it without a cache."""
    return Campaign(
        small_grid(workloads),
        cache=ResultCache(str(cache_dir)) if cache_dir is not None else None)


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
        tasks = [functools.partial(chaos_shard_task, switch.path, i)
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
        reference = result_fields(Campaign(small_grid(3)).run())
        campaign = Campaign(small_grid(3), jobs=2)
        fake = BrokenPoolOnce(fail="result", at=1)
        campaign.pool.factory = lambda max_workers: fake
        outcome = campaign.run()
        assert result_fields(outcome) == reference
        assert fake.broke and fake.submitted == 3
        # some cell of this run ran off-pool
        assert campaign.degraded and outcome.degraded
        assert campaign.pool.owner == "campaign"
        assert campaign.pool.pool_failures == 1

    @pytest.mark.skipif(not HAVE_PROCESS_POOLS,
                        reason="process pools unavailable in this sandbox")
    def test_sigkilled_campaign_worker_retries_once(self, tmp_path,
                                                    monkeypatch):
        """A campaign worker process SIGKILL'd mid-cell: the pool breaks,
        the cell is retried serially, results match the clean run."""
        import repro.analysis.campaign as campaign_module

        reference = result_fields(Campaign(small_grid(2)).run())
        switch = KillSwitch(str(tmp_path / "marker"))
        switch.arm()
        monkeypatch.setenv(SPEC_KILL_MARKER_ENV, switch.path)
        monkeypatch.setattr(campaign_module, "_execute_spec_payload",
                            killing_spec_executor)
        obs = Telemetry(ObsConfig(trace=True))
        campaign = Campaign(small_grid(2), jobs=2, obs=obs)
        try:
            outcome = campaign.run()
        finally:
            switch.disarm()
        assert result_fields(outcome) == reference
        assert campaign.degraded
        (event,) = log_events(obs, "pool.rebuild")
        assert event["owner"] == "campaign"


# ----------------------------------------------------------------------
# campaign resume: the result cache is the one durable per-cell record
# ----------------------------------------------------------------------

class TestCampaignResume:
    def test_interrupted_campaign_resumes_from_the_cache(self, tmp_path):
        reference = result_fields(make_campaign(workloads=4).run())
        # "crash" after two of four cells: run a smaller grid on the same
        # cache directory, then re-run the full grid there
        make_campaign(tmp_path / "cache", workloads=2).run()
        assert len(ResultCache(str(tmp_path / "cache"))) == 2

        resumed = make_campaign(tmp_path / "cache", workloads=4).run()
        assert [entry.cache_hit for entry in resumed] == [
            True, True, False, False]
        assert result_fields(resumed) == reference
        # a row says where its result came from in one field
        assert [sorted(row) for row in resumed.to_json()["results"]] == [
            ["cache_hit", "cache_key", "result", "spec"]] * 4

    @pytest.mark.parametrize("damage", [truncate_file, flip_byte])
    def test_a_damaged_cache_entry_is_recomputed(self, tmp_path, damage):
        reference = result_fields(make_campaign(workloads=2).run())
        first = make_campaign(tmp_path / "cache", workloads=2).run()
        cache = ResultCache(str(tmp_path / "cache"))
        damage(cache.path_for(first.entries[0].cache_key))

        resumed = make_campaign(tmp_path / "cache", workloads=2).run()
        assert [entry.cache_hit for entry in resumed] == [False, True]
        assert resumed.cache_stats.invalidations == 1
        assert result_fields(resumed) == reference

    @pytest.mark.parametrize("flag", [
        ["--checkpoint-dir", "ck"], ["--checkpoint-every", "2"],
        ["--resume"]], ids=lambda flag: flag[0])
    def test_campaign_has_no_progress_checkpoint_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--no-cache", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("kwargs", [
        {"resume": True}, {"checkpoint_dir": "ck"},
        {"checkpoint_every": 2}], ids=lambda kwargs: next(iter(kwargs)))
    def test_campaign_takes_no_progress_checkpoint_arguments(self, kwargs):
        with pytest.raises(TypeError):
            Campaign([], **kwargs)


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
