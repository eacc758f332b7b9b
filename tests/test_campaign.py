"""Tests for the campaign subsystem: specs, cache, parallel sweeps, CLI."""

import json
import os
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.analysis.campaign as campaign_module
from repro._version import __version__
from repro.analysis.cache import ResultCache, canonical_json, content_key
from repro.analysis.campaign import (
    Campaign,
    ExperimentSpec,
    expand_request,
    run_spec,
)
from repro.analysis.metrics import ExperimentResult
from repro.analysis.tables import campaign_rows, format_campaign_table
from repro.cli import main
from repro.hardware.cost_model import KernelTiming
from repro.workloads import FAMILIES
from repro.workloads.lwfa import LWFAWorkload
from repro.workloads.uniform import UniformPlasmaWorkload


def tiny_grid(**overrides):
    """A one-cell grid request (4^3 cells in one tile, PPC 8, one step);
    ``overrides`` replace its keys."""
    return {"workload": "uniform", "n_cell": [4, 4, 4],
            "tile_size": [4, 4, 4], "ppc": [8], "shape_order": 1,
            "configurations": ["Baseline"], "steps": 1, **overrides}


def tiny_spec(**overrides):
    """The cell of :func:`tiny_grid`; ``overrides`` replace spec fields
    (past what ``expand_request`` would accept, say an unknown name)."""
    (spec,) = expand_request(tiny_grid())
    if overrides:
        spec = ExperimentSpec.from_dict({**spec.to_dict(), **overrides})
    return spec


class TestExperimentSpec:
    def test_round_trips_through_dict(self):
        spec = tiny_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        # dict form is JSON-able (what the cache and worker pickling use)
        rebuilt = ExperimentSpec.from_dict(
            json.loads(canonical_json(spec.to_dict())))
        assert rebuilt.cache_key() == spec.cache_key()

    def test_known_workloads_are_registered(self):
        for family in FAMILIES:
            (spec,) = expand_request({"workload": family, "ppc": [1],
                                      "configurations": ["Baseline"]})
            assert spec.workload_kind == family
            assert type(spec.build_workload()) is FAMILIES[family]["builder"]

    def test_workloads_take_no_sorting_policy(self):
        """Every run uses the paper's policy (the constants of
        ``repro.core.sort_policy``); a workload-level copy was accepted,
        hashed and read by nothing."""
        for cls in (UniformPlasmaWorkload, LWFAWorkload):
            with pytest.raises(TypeError, match="sorting"):
                cls(sorting={"sort_interval": 20})

    def test_workloads_take_no_kernel_tier(self):
        """There is one scatter path: no workload carries a kernel tier."""
        for cls in (UniformPlasmaWorkload, LWFAWorkload):
            with pytest.raises(TypeError, match="backend"):
                cls(backend={"kernel_tier": "oracle"})

    def test_build_workload_reconstructs_equal_builder(self):
        (spec,) = expand_request(tiny_grid(seed=7))
        assert spec.build_workload() == UniformPlasmaWorkload(
            n_cell=(4, 4, 4), tile_size=(4, 4, 4), ppc=8, shape_order=1,
            max_steps=1, seed=7)


class TestCacheKey:
    """Any change to a spec field must change its content key."""

    def test_key_is_stable(self):
        assert tiny_spec().cache_key() == tiny_spec().cache_key()

    def test_key_ignores_the_kernel_tier(self, monkeypatch):
        # there is one scatter path, so the retired REPRO_KERNEL_TIER
        # variable is inert: whatever it says, a key is the same
        key = tiny_spec().cache_key()
        for tier in ("oracle", "fused", "no-such-tier"):
            monkeypatch.setenv("REPRO_KERNEL_TIER", tier)
            assert tiny_spec().cache_key() == key

    @pytest.mark.parametrize("overrides", [
        {"configuration": "Baseline+IncrSort"},
        {"steps": 2},
        {"warmup_steps": 0},
        {"scramble": False},
    ])
    def test_key_changes_with_spec_fields(self, overrides):
        assert tiny_spec(**overrides).cache_key() != tiny_spec().cache_key()

    def test_key_changes_with_workload_params(self):
        for overrides in ({"seed": 7}, {"ppc": [1]}, {"shape_order": 2}):
            (changed,) = expand_request(tiny_grid(**overrides))
            assert changed.cache_key() != tiny_spec().cache_key()

    def test_every_workload_param_is_in_the_key(self):
        """A spec always carries its step count and the key drops no
        workload parameter, ``max_steps`` included (``expand_request``
        sets it to ``steps``)."""
        def spec(max_steps):
            params = {**tiny_spec().workload_params, "max_steps": max_steps}
            return tiny_spec(workload_params=params)

        assert spec(2).cache_key() != spec(9).cache_key()
        with pytest.raises(TypeError, match="steps"):
            ExperimentSpec("uniform", {}, "Baseline")


class TestResultSerialization:
    def test_experiment_result_json_round_trip(self):
        result = run_spec(tiny_spec())
        rebuilt = ExperimentResult.from_json(
            json.loads(json.dumps(result.to_json())))
        # lossless: the JSON form (floats included) is byte-identical
        assert (canonical_json(rebuilt.to_json())
                == canonical_json(result.to_json()))
        assert rebuilt.timing.total == result.timing.total
        assert rebuilt.stage_seconds == result.stage_seconds

    def test_kernel_timing_round_trip(self):
        timing = KernelTiming("LX2", {"compute": 1.0 / 3.0, "sort": 1e-300},
                              effective_flops=7.5)
        rebuilt = KernelTiming.from_dict(
            json.loads(json.dumps(timing.to_dict())))
        assert rebuilt.seconds_by_phase == timing.seconds_by_phase
        assert rebuilt.effective_flops == timing.effective_flops
        assert rebuilt.spec_name == "LX2"


class TestCampaign:
    CONFIGS = ("Baseline", "Baseline+IncrSort")

    def test_grid_expansion_preserves_order(self):
        campaign = Campaign(expand_request(tiny_grid(
            ppc=[1, 8], configurations=list(self.CONFIGS))))
        assert [s.configuration for s in campaign.specs] == list(
            self.CONFIGS) * 2
        assert [s.workload_params["ppc"] for s in campaign.specs] == [1, 1, 8, 8]

    def test_second_run_is_pure_hit_with_identical_json(self, tmp_path):
        cache_dir = str(tmp_path / "cache")

        def sweep():
            return Campaign(
                expand_request(tiny_grid(configurations=list(self.CONFIGS))),
                cache=ResultCache(cache_dir)).run()

        first = sweep()
        assert first.cache_stats.misses == len(self.CONFIGS)
        assert not any(e.cache_hit for e in first)

        second = sweep()
        assert second.cache_stats.hits == len(self.CONFIGS)
        assert second.cache_stats.misses == 0
        assert second.cache_stats.hit_ratio == 1.0
        assert all(e.cache_hit for e in second)
        # replayed results are byte-identical to the fresh ones,
        # wall-clock fields included (they were stored, not re-measured)
        for a, b in zip(first, second):
            assert (canonical_json(a.result.to_json())
                    == canonical_json(b.result.to_json()))

    def test_parallel_results_equal_serial(self):
        grid = tiny_grid(ppc=[1, 8], configurations=list(self.CONFIGS))
        serial = Campaign(expand_request(grid), jobs=1).run()
        parallel = Campaign(expand_request(grid), jobs=2).run()
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert a.spec == b.spec
            # everything but interpreter wall-clock must match exactly
            assert (canonical_json(a.result.deterministic_fields())
                    == canonical_json(b.result.deterministic_fields()))

    def test_submit_failure_degrades_to_serial(self):
        """A pool whose submit() raises (fork blocked in the sandbox)
        must degrade to inline execution, not crash."""
        campaign = Campaign(expand_request(tiny_grid(
            ppc=[1], configurations=list(self.CONFIGS))), jobs=2)

        class FailingPool:
            def submit(self, fn, *args):
                raise OSError("fork blocked")

            def shutdown(self, wait=True):
                pass

        campaign.pool.factory = lambda max_workers: FailingPool()
        outcome = campaign.run()
        assert outcome.degraded
        assert len(outcome) == 2
        assert all(e.result.timing.total > 0.0 for e in outcome)

    def test_clear_sweeps_entries_and_orphaned_tmp_files(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        spec = tiny_spec()
        cache.put(spec.cache_key(), spec.to_dict(), {"x": 1})
        orphan = tmp_path / "cache" / "ab" / "tmp1234.tmp"
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_text("half-written entry")
        # unrelated files in the directory must survive a clear
        foreign = tmp_path / "cache" / "important-data.json"
        foreign.write_text("{}")
        nested_foreign = tmp_path / "cache" / "ab" / "notes.json"
        nested_foreign.write_text("{}")
        assert len(cache) == 1
        assert cache.clear() == 2
        assert len(cache) == 0
        assert not orphan.exists()
        assert foreign.exists() and nested_foreign.exists()

    def test_unwritable_cache_dir_degrades_instead_of_crashing(self, tmp_path):
        """A cache that cannot be written must not discard computed
        results (put is best-effort, counted in write_errors)."""
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory")
        cache = ResultCache(str(blocker / "cache"))
        outcome = Campaign([tiny_spec()], cache=cache).run()
        assert outcome.entries[0].result.timing.total > 0.0
        assert cache.stats.write_errors == 1
        assert cache.stats.writes == 0
        # the structural path problem is a plain miss, not a phantom
        # corrupt-entry eviction
        assert cache.stats.misses == 1
        assert cache.stats.invalidations == 0

    def test_duplicate_specs_compute_once_and_fan_out(self, tmp_path):
        """A grid repeating the same cell simulates it once; every
        position still gets its result."""
        cache = ResultCache(str(tmp_path / "cache"))
        outcome = Campaign([tiny_spec(), tiny_spec()], cache=cache).run()
        assert len(outcome) == 2
        assert cache.stats.writes == 1
        assert (canonical_json(outcome.entries[0].result.to_json())
                == canonical_json(outcome.entries[1].result.to_json()))
        # same dedup without a cache (identity falls back to the spec)
        no_cache = Campaign([tiny_spec(), tiny_spec()]).run()
        assert len(no_cache) == 2
        assert (no_cache.entries[0].result.to_json()
                == no_cache.entries[1].result.to_json())

    def test_cache_stats_are_per_run_deltas(self, tmp_path):
        """Each CampaignResult reports only its own run's accounting,
        even when the ResultCache object is shared across campaigns, and
        a later run never mutates an earlier result's numbers."""
        cache = ResultCache(str(tmp_path / "cache"))
        first = Campaign([tiny_spec()], cache=cache).run()
        assert first.cache_stats.misses == 1
        assert first.cache_stats.hits == 0
        second = Campaign([tiny_spec()], cache=cache).run()
        # second run: a pure hit, not 50/50 lifetime totals
        assert second.cache_stats.hits == 1
        assert second.cache_stats.misses == 0
        assert second.cache_stats.hit_ratio == 1.0
        # lifetime counters still accumulate on the cache itself
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        # and the first result's snapshot is unchanged
        assert first.cache_stats.misses == 1 and first.cache_stats.hits == 0

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        spec = tiny_spec()
        Campaign([spec], cache=ResultCache(cache_dir)).run()

        path = ResultCache(cache_dir).path_for(spec.cache_key())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json at all")

        cache = ResultCache(cache_dir)
        outcome = Campaign([spec], cache=cache).run()
        assert cache.stats.invalidations == 1
        assert cache.stats.misses == 1
        assert not outcome.entries[0].cache_hit
        assert outcome.entries[0].result.timing.total > 0.0
        # the recomputed entry replaced the corrupt file
        with open(path, "r", encoding="utf-8") as fh:
            assert json.load(fh)["key"] == spec.cache_key()

    def test_wrong_shaped_entry_counts_as_invalidating_miss(self, tmp_path):
        """An entry that parses as JSON but not as an ExperimentResult is
        evicted and accounted as a miss, never as a hit — and a result
        whose 'timing' is a list (AttributeError path) must not crash."""
        cache_dir = str(tmp_path / "cache")
        spec = tiny_spec()
        ResultCache(cache_dir).put(spec.cache_key(), spec.to_dict(),
                                   {"timing": [1, 2]})

        cache = ResultCache(cache_dir)
        outcome = Campaign([spec], cache=cache).run()
        assert cache.stats.hits == 0
        assert cache.stats.misses == 1
        assert cache.stats.invalidations == 1
        assert not outcome.entries[0].cache_hit
        assert outcome.entries[0].result.timing.total > 0.0
        # the recomputed result replaced the bogus entry: next run hits
        rerun_cache = ResultCache(cache_dir)
        rerun = Campaign([spec], cache=rerun_cache).run()
        assert rerun_cache.stats.hits == 1
        assert rerun.entries[0].cache_hit

    def test_mid_batch_failure_preserves_completed_results(self, tmp_path):
        """A spec that raises must not discard siblings that already
        completed: their payloads are cached as they materialize."""
        cache_dir = str(tmp_path / "cache")
        good = tiny_spec()
        bad = tiny_spec(configuration="NoSuchConfiguration")
        with pytest.raises(ValueError):
            Campaign([good, bad], cache=ResultCache(cache_dir)).run()
        # the completed sibling was persisted before the crash
        rerun_cache = ResultCache(cache_dir)
        rerun = Campaign([good], cache=rerun_cache).run()
        assert rerun_cache.stats.hits == 1
        assert rerun.entries[0].cache_hit

    def test_key_mismatched_entry_is_invalidated(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        key = content_key({"x": 1})
        path = cache.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"key": "someone-else", "result": {}}, fh)
        assert cache.get(key) is None
        assert cache.stats.invalidations == 1
        assert not os.path.exists(path)

    def test_cache_key_embeds_library_version(self, monkeypatch):
        """A version bump invalidates every stored key."""
        import repro.analysis.campaign as campaign_module

        before = tiny_spec().cache_key()
        monkeypatch.setattr(campaign_module, "__version__",
                            __version__ + ".post-test")
        assert tiny_spec().cache_key() != before

    def test_cache_key_embeds_source_fingerprint(self, monkeypatch):
        """An in-place source edit invalidates every stored key."""
        import repro.analysis.campaign as campaign_module

        before = tiny_spec().cache_key()
        assert len(campaign_module.source_fingerprint()) == 64
        monkeypatch.setattr(campaign_module, "_SOURCE_FINGERPRINT",
                            "0" * 64)
        assert tiny_spec().cache_key() != before


class TestSweepIntegration:
    def test_sweep_through_campaign_matches_configurations(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        grid = tiny_grid(configurations=["Baseline", "Baseline+IncrSort"])
        results = Campaign(expand_request(grid), cache=cache).run()
        assert [entry.spec.configuration for entry in results] \
            == ["Baseline", "Baseline+IncrSort"]
        assert cache.stats.misses == 2
        again = Campaign(expand_request(grid), cache=cache).run()
        assert cache.stats.hits == 2
        for a, b in zip(results, again):
            assert (canonical_json(a.result.to_json())
                    == canonical_json(b.result.to_json()))


class TestFormatters:
    def test_campaign_table_and_rows(self, tmp_path):
        outcome = Campaign(expand_request(tiny_grid()),
                           cache=ResultCache(str(tmp_path / "cache"))).run()
        text = format_campaign_table(outcome)
        assert "Baseline" in text
        assert "uniform/ppc=8" in text
        assert "cache: 0 hits, 1 misses" in text
        rows = campaign_rows(outcome)
        assert rows[0]["workload"] == "uniform/ppc=8"
        assert rows[0]["cached"] is False


class TestCLI:
    ARGS = ["campaign", "--workload", "uniform", "--n-cell", "4,4,4",
            "--tile-size", "4,4,4", "--ppc", "1,8",
            "--configurations", "Baseline,Baseline+IncrSort",
            "--steps", "1"]

    def test_campaign_cli_warm_rerun_is_pure_hit(self, tmp_path, capsys):
        args = self.ARGS + ["--cache-dir", str(tmp_path / "cache"),
                            "--format", "json"]
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["cache"]["misses"] == 4

        assert main(args) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["cache"]["hits"] == 4
        assert warm["cache"]["misses"] == 0
        assert all(r["cache_hit"] for r in warm["results"])
        # byte-identical results, cold vs warm
        assert ([r["result"] for r in warm["results"]]
                == [r["result"] for r in cold["results"]])

    def test_campaign_cli_table_and_csv(self, tmp_path, capsys):
        base = self.ARGS + ["--cache-dir", str(tmp_path / "cache")]
        assert main(base + ["--format", "table"]) == 0
        table = capsys.readouterr().out
        assert "Configuration" in table and "cache:" in table
        assert main(base + ["--format", "csv"]) == 0
        csv_out = capsys.readouterr().out
        header = csv_out.splitlines()[0]
        assert "configuration" in header and "cached" in header
        assert len(csv_out.strip().splitlines()) == 1 + 4

    def test_campaign_cli_no_cache(self, capsys):
        args = ["campaign", "--workload", "uniform", "--n-cell", "4,4,4",
                "--tile-size", "4,4,4", "--ppc", "1",
                "--configurations", "Baseline", "--steps", "1",
                "--no-cache", "--format", "json"]
        assert main(args) == 0
        out = json.loads(capsys.readouterr().out)
        assert "cache" not in out
        assert not out["results"][0]["cache_hit"]

    def test_campaign_cli_rejects_unknown_configuration(self, capsys):
        assert main(["campaign", "--configurations", "NoSuchConfig",
                     "--no-cache"]) == 2

    def test_campaign_cli_rejects_nonpositive_jobs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--jobs", "0", "--no-cache"])
        assert excinfo.value.code == 2

    def test_campaign_cli_rejects_invalid_ppc_and_steps(self, capsys):
        # PPC outside the paper's scan and not a perfect cube: clean
        # usage error, not a traceback from inside the campaign run
        assert main(["campaign", "--ppc", "5", "--no-cache"]) == 2
        assert "error" in capsys.readouterr().err
        # the flag parses any int; the grid expansion rejects the range
        assert main(["campaign", "--steps", "-3", "--no-cache"]) == 2
        assert capsys.readouterr().err.startswith("error: steps")

    def test_campaign_cli_clear_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ["campaign", "--workload", "uniform", "--n-cell", "4,4,4",
                "--tile-size", "4,4,4", "--ppc", "1",
                "--configurations", "Baseline", "--steps", "1",
                "--cache-dir", cache_dir, "--format", "json"]
        assert main(args) == 0
        capsys.readouterr()
        # clearing strands nothing: the rerun recomputes from scratch
        assert main(args + ["--clear-cache"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cache"]["misses"] == 1 and out["cache"]["hits"] == 0

    def test_campaign_cli_cache_max_bytes(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = self.ARGS + ["--cache-dir", cache_dir, "--format", "json",
                            "--cache-max-bytes", "1"]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["cache"]["misses"] == 4
        assert "cache bounded to 1 bytes" in captured.err
        # a 1-byte budget evicts everything the run just stored
        assert ResultCache(cache_dir).size_stats()["entries"] == 0

    def test_campaign_cli_rejects_negative_cache_max_bytes(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--cache-max-bytes", "-1", "--no-cache"])
        assert excinfo.value.code == 2

    def test_campaign_cli_rejects_empty_grid(self, capsys):
        assert main(["campaign", "--ppc", ",", "--no-cache"]) == 2
        assert main(["campaign", "--configurations", ",", "--no-cache"]) == 2

    def test_campaign_cli_rejects_shape_order_for_lwfa(self, capsys):
        assert main(["campaign", "--workload", "lwfa", "--shape-order", "3",
                     "--no-cache"]) == 2
        assert "uniform" in capsys.readouterr().err

    def test_run_cli_rejects_shape_order_for_lwfa(self, capsys):
        # the one check is workload_for_family's; `run` reports it the
        # way `campaign` does, before a session is built
        assert main(["run", "--workload", "lwfa", "--shape-order", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "uniform" in err

    def test_campaign_cli_ignores_the_retired_tier_variable(
            self, tmp_path, capsys, monkeypatch):
        # REPRO_KERNEL_TIER selected a kernel tier once; now nothing
        # reads it, so a value no tier ever had runs and caches as usual
        # and the result is the one a run without the variable caches
        args = ["campaign", "--workload", "uniform", "--n-cell", "4,4,4",
                "--tile-size", "4,4,4", "--ppc", "1",
                "--configurations", "Baseline", "--steps", "1",
                "--cache-dir", str(tmp_path / "cache"), "--format", "json"]
        monkeypatch.setenv("REPRO_KERNEL_TIER", "no-such-tier")
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["cache"]["misses"] == 1
        monkeypatch.delenv("REPRO_KERNEL_TIER")
        assert main(args) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["cache"]["hits"] == 1
        assert ([r["result"] for r in warm["results"]]
                == [r["result"] for r in cold["results"]])

    def test_list_configurations(self, capsys):
        assert main(["campaign", "--list-configurations"]) == 0
        out = capsys.readouterr().out
        assert "MatrixPIC (FullOpt)" in out

    def test_campaign_cli_rejects_an_order_the_kernel_cannot_deposit(
            self, capsys):
        # a usage error before any cell runs, not a ValueError out of main
        assert main(["campaign", "--shape-order", "2", "--configurations",
                     "Rhocell", "--no-cache"]) == 2
        assert "shape orders [1, 3]" in capsys.readouterr().err

    def test_run_cli_rejects_a_decomposition_before_the_session(
            self, capsys):
        # workload_for_family's check, the one campaign and HTTP reach
        assert main(["run", "--domains", "3,1,1", "--steps", "1"]) == 2
        assert "cannot split" in capsys.readouterr().err

    @pytest.mark.parametrize("args, grid", [
        (["--configuration", "TurboPIC"], {"configurations": ["TurboPIC"]}),
        (["--configuration", "MatrixPIC (FullOpt)", "--shape-order", "2"],
         {"configurations": ["MatrixPIC (FullOpt)"], "shape_order": 2}),
    ], ids=["unknown", "order-its-kernel-cannot-deposit"])
    def test_run_cli_refuses_a_configuration_as_campaign_does(
            self, args, grid, capsys):
        # `run` is a one-cell grid: the message is expand_request's
        with pytest.raises(ValueError) as expected:
            expand_request(grid)
        assert main(["run", "--steps", "1"] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {expected.value}\n"

    def test_run_cli_traces_the_papers_path(self, tmp_path, capsys,
                                            monkeypatch):
        from repro.core.framework import MatrixPICDeposition
        from repro.obs import validate_chrome_trace

        calls = []
        run_step = MatrixPICDeposition.run_step
        monkeypatch.setattr(MatrixPICDeposition, "run_step",
                            lambda self, *args, **kwargs: calls.append(
                                self.name) or run_step(self, *args,
                                                       **kwargs))
        path = tmp_path / "mpic-trace.json"
        assert main(["run", "--configuration", "MatrixPIC (FullOpt)",
                     "--n-cell", "8,8,8", "--steps", "2",
                     "--trace", str(path)]) == 0
        assert calls == ["MatrixPIC (FullOpt)"] * 2
        with open(path, encoding="utf-8") as stream:
            trace = json.load(stream)
        assert validate_chrome_trace(trace) == []
        deposits = [event for event in trace["traceEvents"]
                    if event["name"] == "deposit" and event["ph"] == "B"]
        assert len(deposits) == len(calls)


# ----------------------------------------------------------------------
# One grid expansion: the CLI accepts exactly the grids the service does
# ----------------------------------------------------------------------

class _Intercepted(Exception):
    """Raised instead of running the campaign the CLI built."""


class _InterceptedCampaign(Campaign):
    def run(self):
        raise _Intercepted(self.specs)


def cli_specs(argv):
    """The specs ``main(argv)`` would run, or its exit code."""
    with mock.patch.object(campaign_module, "Campaign",
                           _InterceptedCampaign):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code
        except _Intercepted as intercepted:
            return intercepted.args[0]


def campaign_argv(grid):
    """A grid mapping rendered as ``repro campaign`` flags."""
    argv = ["campaign", "--no-cache"]
    for key, value in grid.items():
        if key == "scramble":
            argv += [] if value else ["--no-scramble"]
            continue
        argv += ["--" + key.replace("_", "-"),
                 ",".join(map(str, value)) if isinstance(value, list)
                 else str(value)]
    return argv


#: one small valid grid (8^3 cells in 4^3 tiles) the examples vary
BASE_GRID = {"workload": "uniform", "ppc": [1], "steps": 1,
             "configurations": ["Baseline"], "tile_size": [4, 4, 4]}

#: grids valid and invalid; each axis repeats its valid values so that
#: a fair share of the drawn grids is accepted
GRIDS = st.fixed_dictionaries(
    {"workload": st.sampled_from(["uniform", "uniform", "lwfa"]),
     "ppc": st.sampled_from([[1], [8], [1, 8], [8, 1], [1], [5], []]),
     "configurations": st.sampled_from([
         ["Baseline"], ["Baseline"], ["Baseline", "MatrixPIC (FullOpt)"],
         ["MatrixPIC (FullOpt)"], ["Rhocell"], ["NoSuchConfig"], []]),
     "steps": st.sampled_from([0, 1, 1, 2, -1])},
    optional={"shape_order": st.sampled_from([1, 2, 3]),
              "domains": st.sampled_from([[1, 1, 1], [2, 1, 1], [3, 1, 1]]),
              "tile_size": st.sampled_from([[4, 4, 4], [4, 4, 4], [4, 4]]),
              "warmup_steps": st.integers(0, 1),
              "seed": st.integers(0, 3),
              "scramble": st.booleans()})


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(GRIDS)
@example(dict(BASE_GRID, ppc=[5]))
@example(dict(BASE_GRID, ppc=[]))
@example(dict(BASE_GRID, workload="lwfa", shape_order=3))
@example(dict(BASE_GRID, domains=[3, 1, 1]))
@example(dict(BASE_GRID, domains=[2, 1, 1], shape_order=3,
              configurations=["Baseline", "MatrixPIC (FullOpt)"]))
@example(dict(BASE_GRID, shape_order=2,
              configurations=["MatrixPIC (FullOpt)"]))
@example(dict(BASE_GRID, shape_order=2, configurations=["Rhocell"]))
@example(dict(BASE_GRID, shape_order=2))
@example(dict(BASE_GRID, configurations=["NoSuchConfig"]))
def test_the_cli_accepts_exactly_the_grids_the_service_accepts(grid):
    """``repro campaign`` exits 2 exactly when ``expand_request`` raises,
    and an accepted grid runs the service's specs under its keys."""
    try:
        expected = expand_request(grid)
    except ValueError:
        expected = None
    outcome = cli_specs(campaign_argv(grid))
    if expected is None:
        assert outcome == 2
        return
    assert [spec.to_dict() for spec in outcome] \
        == [spec.to_dict() for spec in expected]
    assert [spec.cache_key() for spec in outcome] \
        == [spec.cache_key() for spec in expected]


# ----------------------------------------------------------------------
# Cache size accounting and LRU eviction
# ----------------------------------------------------------------------

def _key(i):
    """A distinct well-formed 64-hex cache key per index."""
    return f"{i:064x}"


class TestCacheSizeAndEviction:
    def filled_cache(self, tmp_path, entries=3):
        cache = ResultCache(str(tmp_path / "cache"))
        paths = []
        for i in range(entries):
            paths.append(cache.put(_key(i), {"i": i},
                                   {"i": i, "fill": "x" * 128}))
        return cache, paths

    def test_size_stats_counts_entries_and_bytes(self, tmp_path):
        cache, paths = self.filled_cache(tmp_path)
        stats = cache.size_stats()
        assert stats["entries"] == 3
        assert stats["total_bytes"] == sum(os.path.getsize(p) for p in paths)
        assert ResultCache(str(tmp_path / "empty")).size_stats() \
            == {"entries": 0, "total_bytes": 0}

    def test_evict_removes_least_recently_used_first(self, tmp_path):
        cache, paths = self.filled_cache(tmp_path)
        now = os.path.getmtime(paths[2])
        os.utime(paths[0], (now - 100, now - 100))  # coldest
        os.utime(paths[1], (now - 50, now - 50))
        total = sum(os.path.getsize(p) for p in paths)
        newest_size = os.path.getsize(paths[2])
        evicted = cache.evict(newest_size)
        assert evicted == 2
        assert cache.get(_key(2)) is not None  # the hot entry survives
        assert cache.size_stats()["entries"] == 1
        assert cache.stats.evictions == 2
        assert cache.stats.evicted_bytes == total - newest_size
        assert "evictions" in cache.stats.as_dict()
        assert "evicted_bytes" in cache.stats.as_dict()

    def test_get_refreshes_the_lru_clock(self, tmp_path):
        cache, paths = self.filled_cache(tmp_path, entries=2)
        now = os.path.getmtime(paths[1])
        os.utime(paths[0], (now - 100, now - 100))
        assert cache.get(_key(0)) is not None  # touch: entry 0 is hot now
        os.utime(paths[1], (now - 50, now - 50))
        cache.evict(os.path.getsize(paths[0]))
        assert cache.get(_key(0)) is not None
        assert cache.get(_key(1)) is None

    def test_evict_sweeps_orphaned_tmp_files(self, tmp_path):
        cache, paths = self.filled_cache(tmp_path, entries=1)
        orphan = os.path.join(os.path.dirname(paths[0]), "stale123.tmp")
        with open(orphan, "w", encoding="utf-8") as fh:
            fh.write("half-written by a killed put")
        assert cache.evict(10**9) == 0  # under budget: entries survive
        assert not os.path.exists(orphan)  # ...but dead weight is swept
        assert cache.size_stats()["entries"] == 1

    def test_evict_rejects_negative_budget(self, tmp_path):
        cache, _paths = self.filled_cache(tmp_path, entries=1)
        with pytest.raises(ValueError):
            cache.evict(-1)

    def test_evict_to_zero_empties_the_cache(self, tmp_path):
        cache, _paths = self.filled_cache(tmp_path)
        assert cache.evict(0) == 3
        assert cache.size_stats() == {"entries": 0, "total_bytes": 0}


# ----------------------------------------------------------------------
# Concurrent writers: last-writer-wins, no torn reads
# ----------------------------------------------------------------------

def _hammer_put(cache_dir, key, writer_id, rounds):
    """Worker: repeatedly store complete payloads under one key."""
    cache = ResultCache(cache_dir)
    for n in range(rounds):
        cache.put(key, {"writer": writer_id},
                  {"writer": writer_id, "n": n, "fill": "x" * 256})


class TestConcurrentPut:
    def test_same_key_race_is_atomic_and_last_writer_wins(self, tmp_path):
        """Two processes hammering ``put`` on one key race only on the
        final rename: a concurrent reader sees either writer's complete
        payload, never a torn mix, and the last write wins wholesale."""
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        ctx = multiprocessing.get_context("fork")
        cache_dir = str(tmp_path / "cache")
        key = _key(7)
        writers = [ctx.Process(target=_hammer_put,
                               args=(cache_dir, key, i, 40))
                   for i in range(2)]
        for proc in writers:
            proc.start()
        reader = ResultCache(cache_dir)
        observed = 0
        while any(proc.is_alive() for proc in writers):
            entry = reader.get(key)
            if entry is None:
                continue
            observed += 1
            # a complete payload from exactly one writer — the atomic
            # rename never exposes a mix of the two
            assert entry["key"] == key
            result = entry["result"]
            assert result["writer"] in (0, 1)
            assert 0 <= result["n"] < 40
            assert result["fill"] == "x" * 256
            assert entry["spec"] == {"writer": result["writer"]}
        for proc in writers:
            proc.join()
            assert proc.exitcode == 0
        # no torn read was ever observed: get() evicts corrupt entries
        # and counts them, so a clean run pins zero invalidations
        assert reader.stats.invalidations == 0
        assert observed > 0
        # last writer wins wholesale: a final put overwrites the key
        reader.put(key, {"writer": "parent"}, {"writer": "parent"})
        final = reader.get(key)
        assert final["result"] == {"writer": "parent"}
        assert reader.size_stats()["entries"] == 1
