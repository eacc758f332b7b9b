"""Observability layer (:mod:`repro.obs`): tracing, metrics, health.

The two contracts pinned here are the ones the whole layer stands on:

* **Bitwise neutrality** — a traced run (spans + counters + health
  probes) produces bit-identical fields and energy history to an
  untraced run, and a disabled run records nothing at all (the null
  registry stays empty).
* **Deterministic content** — two identical traced runs emit the same
  event sequence and the same counter values; only timestamps differ.
"""

from __future__ import annotations

import json
import logging
import math

import numpy as np
import pytest

from repro.api import Session
from repro.cli import main as cli_main
from repro.obs import (
    HealthHook,
    MetricSet,
    ObsConfig,
    PhysicsHealthError,
    Telemetry,
    chrome_trace_events,
    export_chrome_trace,
    health,
    load_trace_events,
    log_event,
    summarize_trace,
    validate_chrome_trace,
)
from repro.obs.registry import NULL_TELEMETRY
from repro.pic.diagnostics import RuntimeBreakdown
from repro.workloads.uniform import UniformPlasmaWorkload


def _workload(**overrides):
    defaults = dict(n_cell=(8, 8, 8), tile_size=(8, 8, 8), ppc=8,
                    max_steps=4)
    defaults.update(overrides)
    return UniformPlasmaWorkload(**defaults)


#: the one-cell grid request of the campaign tests: ``_workload()``'s
#: plasma, one Baseline step
_GRID = {"workload": "uniform", "n_cell": [8, 8, 8], "tile_size": [8, 8, 8],
         "ppc": [8], "configurations": ["Baseline"], "steps": 1}


def _run_session(observe, steps=4, **workload_overrides):
    """Run a small session; returns (fields, energy history, telemetry)."""
    workload = _workload(**workload_overrides)
    with Session.from_workload(workload, observe=observe) as session:
        for _ in session.run(steps, record_energy=True):
            pass
        fields = {name: getattr(session.grid, name).copy()
                  for name in ("ex", "ey", "ez", "bx", "by", "bz")}
        history = [(r.step, r.field_energy, r.kinetic_energy)
                   for r in session.energy.history]
        return fields, history, session.telemetry


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

class TestObsConfig:
    def test_defaults_disabled(self):
        config = ObsConfig()
        assert not config.enabled and not config.trace and not config.health

    def test_trace_or_health_implies_enabled(self):
        assert ObsConfig(trace=True).enabled
        assert ObsConfig(health=True).enabled

    def test_frozen(self):
        with pytest.raises(Exception):
            ObsConfig().enabled = True  # type: ignore[misc]


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

class TestMetricSet:
    def test_add_set_get(self):
        ms = MetricSet()
        ms.add("a.x")
        ms.add("a.x", 2.0)
        ms.set("a.y", 7.0)
        assert ms.get("a.x") == 3.0
        assert ms.get("a.y") == 7.0
        assert ms.get("missing") == 0.0

    def test_namespace_and_clear_prefix(self):
        ms = MetricSet()
        ms.add("time.bucket.push", 1.0)
        ms.add("particles.pushed", 10.0)
        assert ms.namespace("time.bucket.") == {"push": 1.0}
        ms.clear_prefix("time.")
        assert "time.bucket.push" not in ms
        assert ms.get("particles.pushed") == 10.0

    def test_as_dict_sorted(self):
        ms = MetricSet()
        ms.add("b")
        ms.add("a")
        assert list(ms.as_dict()) == ["a", "b"]


class TestTelemetry:
    def test_disabled_records_nothing(self):
        t = Telemetry(ObsConfig())
        t.count("x")
        t.gauge("y", 1.0)
        with t.span("s"):
            pass
        t.log("e", "msg")
        assert len(t.metrics) == 0 and t.events == []

    def test_counters_without_trace(self):
        t = Telemetry(ObsConfig(enabled=True))
        t.count("x", 2.0)
        t.begin_span("s")
        assert t.metrics.get("x") == 2.0
        assert t.events == []  # spans need trace=True

    def test_span_nesting_and_sequence(self):
        t = Telemetry(ObsConfig(trace=True))
        with t.span("outer"):
            with t.span("inner"):
                t.count("n")
        assert t.event_sequence() == [("B", "outer"), ("B", "inner"),
                                      ("E", "inner"), ("E", "outer")]

    def test_snapshot_excludes_nondeterministic(self):
        t = Telemetry(ObsConfig(enabled=True))
        t.count("particles.pushed", 5.0)
        t.count("time.bucket.push", 1.0)
        t.count("exec.shard_tasks", 3.0)
        t.count("campaign.cells", 2.0)
        assert t.snapshot() == {"particles.pushed": 5.0}
        assert "exec.shard_tasks" in t.snapshot(deterministic=False)

    def test_activation_semantics(self):
        """What activation used to decide, decided per run: an enabled
        config builds a private registry, a disabled one takes the shared
        null, and building another run changes neither."""
        with Session.from_workload(_workload(), observe=True) as first:
            handle = first.telemetry
            assert handle.enabled and handle is not NULL_TELEMETRY
            with Session.from_workload(_workload()) as plain, \
                    Session.from_workload(_workload(),
                                          observe=True) as second:
                assert plain.telemetry is NULL_TELEMETRY
                assert second.telemetry is not handle
            assert first.telemetry is handle
            assert first.executor.obs is handle


# ----------------------------------------------------------------------
# the tentpole contracts
# ----------------------------------------------------------------------

class TestBitwiseNeutrality:
    def test_traced_run_is_bitwise_identical_to_untraced(self):
        observe = ObsConfig(trace=True, health=True)
        plain_fields, plain_history, _ = _run_session(None)
        traced_fields, traced_history, handle = _run_session(observe)
        assert traced_history == plain_history
        for name, reference in plain_fields.items():
            assert np.array_equal(reference, traced_fields[name]), name
        # the traced run did record telemetry
        assert handle.metrics.get("particles.pushed") > 0
        assert handle.events

    def test_disabled_run_keeps_the_null_registry_empty(self):
        _fields, _history, handle = _run_session(None)
        assert handle is NULL_TELEMETRY
        assert len(NULL_TELEMETRY.metrics) == 0
        assert NULL_TELEMETRY.events == []

    def test_observe_excluded_from_checkpoint_fingerprint(self):
        from repro.ckpt.session import config_fingerprint

        plain = _workload().build_config()
        observed = _workload(
            observe=ObsConfig(trace=True, health=True)).build_config()
        assert config_fingerprint(plain) == config_fingerprint(observed)


class TestDeterministicContent:
    def test_two_traced_runs_agree_on_sequence_and_counters(self):
        observe = ObsConfig(trace=True, health=True)
        _f0, _h0, first = _run_session(observe)
        sequence = first.event_sequence()
        snapshot = first.snapshot()
        _f1, _h1, second = _run_session(observe)
        assert second.event_sequence() == sequence
        assert second.snapshot() == snapshot

    def test_expected_counter_vocabulary(self):
        _f, _h, handle = _run_session(ObsConfig(trace=True, health=True))
        snapshot = handle.snapshot()
        num_particles = 8 * 8 * 8 * 8  # cells x ppc
        assert snapshot["particles.pushed"] == num_particles * 4
        assert snapshot["stage.gather_push.calls"] == 4
        assert snapshot["stage.deposit.calls"] == 4
        assert snapshot["tiles.deposited"] == 4  # one tile per step
        assert snapshot["health.probes"] == 4
        assert snapshot["health.charge_residual"] == 0.0
        assert snapshot["health.energy_drift"] >= 0.0

    def test_domain_run_counts_once_and_exchanges_halos(self):
        observe = ObsConfig(trace=True)
        _f, _h, handle = _run_session(observe, steps=2,
                                      tile_size=(4, 4, 4),
                                      domains=(2, 1, 1))
        snapshot = handle.snapshot(deterministic=False)
        assert snapshot["particles.pushed"] == 8 * 8 * 8 * 8 * 2
        # one exchange before each of the solve's three sub-updates
        assert snapshot["domain.halo_exchanges"] == 3 * 2
        assert snapshot["stage.solve.calls"] == 2

    def test_step_spans_nest_under_the_run_span(self):
        _f, _h, handle = _run_session(ObsConfig(trace=True), steps=2)
        sequence = handle.event_sequence()
        assert sequence[0] == ("B", "run")
        assert sequence[1] == ("B", "step 0")
        assert sequence[-1] == ("E", "run")
        assert ("B", "step 1") in sequence
        payload = {"traceEvents": chrome_trace_events(handle)}
        assert validate_chrome_trace(payload) == []

    def test_a_run_that_dies_mid_step_still_exports_a_valid_trace(self):
        class Boom:
            name = "boom"
            bucket = "other"

            def run(self, session):
                if session.step_index == 1:
                    raise RuntimeError("boom")

        with Session.from_workload(_workload(),
                                   observe=ObsConfig(trace=True)) as session:
            session.pipeline.append(Boom())
            with pytest.raises(RuntimeError, match="boom"):
                session.run_all(3)
            assert session.step_index == 1  # the dying step did not count
            handle = session.telemetry
        # the stage and step spans are closed on the way out, innermost
        # first: the one trace an operator most needs validates
        assert handle.event_sequence()[-3:] == [
            ("E", "boom"), ("E", "step 1"), ("E", "run")]
        payload = {"traceEvents": chrome_trace_events(handle)}
        assert validate_chrome_trace(payload) == []


class TestRunIsolation:
    """A run's counters land in its registry whatever else the process
    builds meanwhile."""

    @staticmethod
    def _step_construct_step(counter, after_step=None, **overrides):
        workload = _workload(tile_size=(4, 4, 4), **overrides)
        with Session.from_workload(workload, observe=True) as session:
            session.step()
            if after_step is not None:
                after_step(session)
            before = session.telemetry.metrics.get(counter)
            assert before > 0
            with Session.from_workload(_workload()):  # untraced bystander
                session.step()
                if after_step is not None:
                    after_step(session)
            assert session.telemetry.metrics.get(counter) == 2 * before
        assert len(NULL_TELEMETRY.metrics) == 0

    def test_halo_exchanges_keep_counting(self):
        self._step_construct_step("domain.halo_exchanges",
                                  domains=(2, 1, 1))

    def test_shard_batches_keep_counting(self):
        from repro.config import ExecutionConfig

        self._step_construct_step(
            "exec.shard_batches",
            execution=ExecutionConfig(backend="threads", num_shards=2))

    def test_checkpoint_saves_keep_counting(self, tmp_path):
        self._step_construct_step(
            "ckpt.saves",
            after_step=lambda session: session.save(
                str(tmp_path / f"s{session.step_index}.ckpt")))

    def test_interleaved_traced_and_untraced_match_their_solo_runs(self):
        observe = ObsConfig(trace=True, health=True)

        def state(session):
            return ({name: array.copy() for name, array
                     in session.grid.field_arrays().items()},
                    session.telemetry.snapshot(),
                    session.telemetry.event_sequence())

        def solo(observe):
            with Session.from_workload(_workload(),
                                       observe=observe) as session:
                for _ in range(3):
                    session.step()
                return state(session)

        expected_traced, expected_plain = solo(observe), solo(None)
        with Session.from_workload(_workload(), observe=observe) as traced, \
                Session.from_workload(_workload()) as plain:
            for _ in range(3):
                traced.step()
                plain.step()
            for got, expected in ((state(traced), expected_traced),
                                  (state(plain), expected_plain)):
                assert got[1:] == expected[1:]
                for name, reference in expected[0].items():
                    assert np.array_equal(reference, got[0][name]), name
        assert expected_traced[1]["particles.pushed"] > 0
        assert expected_plain[1:] == ({}, [])


# ----------------------------------------------------------------------
# trace export
# ----------------------------------------------------------------------

class TestTraceExport:
    def _traced(self):
        t = Telemetry(ObsConfig(trace=True))
        with t.span("run", cat="run", args={"steps": 1}):
            with t.span("step 0", cat="step"):
                t.count("particles.pushed", 10.0)
            t.counter_event("metrics", t.snapshot())
            t.instant("note", args={"k": 1})
        return t

    def test_chrome_events_shape(self):
        events = chrome_trace_events(self._traced())
        assert events[0]["ph"] == "B" and events[0]["ts"] == 0
        phases = [e["ph"] for e in events]
        assert phases == ["B", "B", "E", "C", "i", "E"]
        assert all(e["pid"] == 1 and e["tid"] == 1 for e in events)

    def test_export_validate_summarize_round_trip(self, tmp_path):
        t = self._traced()
        path = export_chrome_trace(t, str(tmp_path / "trace.json"))
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert validate_chrome_trace(payload) == []
        summary = summarize_trace(path)
        assert summary["events"] == 6
        assert summary["max_depth"] == 2
        assert summary["spans"]["run"]["count"] == 1
        assert summary["counters"]["metrics"]["particles.pushed"] == 10.0
        assert summary["instants"]["note"] == 1

    def test_only_the_chrome_container_loads(self, tmp_path):
        t = self._traced()
        path = export_chrome_trace(t, str(tmp_path / "trace.json"))
        events = load_trace_events(path)
        assert [e["ph"] for e in events] == ["B", "B", "E", "C", "i", "E"]
        # one raw event per line is not a trace file
        lines = tmp_path / "trace.jsonl"
        lines.write_text("".join(json.dumps(e) + "\n" for e in t.events))
        with pytest.raises(ValueError):
            load_trace_events(str(lines))
        (tmp_path / "list.json").write_text("[]")
        with pytest.raises(ValueError, match="no traceEvents"):
            load_trace_events(str(tmp_path / "list.json"))

    def test_validator_catches_broken_nesting(self):
        t = self._traced()
        payload = {"traceEvents": chrome_trace_events(t)}
        # drop the final E: the run span never closes
        payload["traceEvents"] = payload["traceEvents"][:-1]
        errors = validate_chrome_trace(payload)
        assert any("never closed" in error for error in errors)

    def test_validator_catches_schema_violations(self):
        errors = validate_chrome_trace({"traceEvents": [{"name": "x"}]})
        assert errors
        assert validate_chrome_trace({}) != []


# ----------------------------------------------------------------------
# RuntimeBreakdown as a metrics view (satellite 1)
# ----------------------------------------------------------------------

class TestRuntimeBreakdown:
    def test_record_stage_credits_both_views(self):
        breakdown = RuntimeBreakdown()
        breakdown.record_stage("gather_push", "push", 2.0)
        breakdown.record_stage("migrate", "push", 1.0)
        assert breakdown.stage_seconds == {"gather_push": 2.0,
                                           "migrate": 1.0}
        assert breakdown.seconds["push"] == 3.0

    def test_reset_spares_non_timing_metrics(self):
        metrics = MetricSet()
        metrics.add("particles.pushed", 10.0)
        breakdown = RuntimeBreakdown(metrics=metrics)
        breakdown.record_stage("deposit", "deposit", 1.0)
        breakdown.finish_step()
        breakdown.reset()
        assert breakdown.seconds == {} and breakdown.steps == 0
        assert metrics.get("particles.pushed") == 10.0

    def test_session_breakdown_shares_the_telemetry_registry(self):
        workload = _workload()
        with Session.from_workload(workload, observe=True) as session:
            session.run_all(2)
            shared = session.telemetry.metrics
            assert session.breakdown.metrics is shared
            assert session.breakdown.seconds  # recorded through the view
            assert shared.namespace("time.bucket.")


# ----------------------------------------------------------------------
# physics health
# ----------------------------------------------------------------------

class TestHealth:
    def test_energy_drift_warns_once(self, caplog, monkeypatch):
        monkeypatch.setattr(health, "ENERGY_DRIFT_WARN", 1.0e-12)
        monkeypatch.setattr(health, "CHARGE_RESIDUAL_WARN", math.inf)
        observe = ObsConfig(health=True)
        with caplog.at_level(logging.WARNING, logger="repro.obs.health"):
            _f, _h, handle = _run_session(observe)
        warnings = [r for r in caplog.records
                    if "energy drift" in r.getMessage()]
        assert len(warnings) == 1
        assert warnings[0].name == "repro.obs.health"
        assert handle.metrics.get("log.health.energy_drift") == 1

    def test_cold_start_baselines_on_the_first_nonzero_total(self, capsys):
        # LWFA starts with the plasma at rest and no field: the first
        # probe totals 0.0 J, which is nothing to measure a drift against
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        assert cli_main([
            "run", "--workload", "lwfa", "--ppc", "8", "--steps", "3",
            "--health", "--metrics", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["metrics"]["health.probes"] == 3
        assert 0.0 < payload["metrics"]["health.energy_drift"] < math.inf

    def test_cold_start_does_not_abort(self):
        from repro.workloads.lwfa import LWFAWorkload

        observe = ObsConfig(health=True)
        workload = LWFAWorkload(ppc=8, max_steps=2)
        with Session.from_workload(workload, observe=observe) as session:
            session.run_all(2)  # step 1 totals 0.0 J, step 2 does not
            assert session.telemetry.metrics.get("health.energy_drift") == 0.0

    def test_nan_guard_aborts(self):
        workload = _workload()
        observe = ObsConfig(health=True)
        with Session.from_workload(workload, observe=observe) as session:
            session.step()
            session.grid.ex[0, 0, 0] = math.nan
            with pytest.raises(PhysicsHealthError, match="non-finite"):
                session.step()

    def test_hook_declares_effects(self):
        hook = HealthHook(Telemetry())
        assert "telemetry" in hook.reads and "telemetry" in hook.writes
        assert hook.writes == {"telemetry"}  # the probe only reads state


# ----------------------------------------------------------------------
# structured logging
# ----------------------------------------------------------------------

class TestLogEvent:
    def test_human_log_preserved_on_module_logger(self, caplog):
        custom = logging.getLogger("repro.test.channel")
        with caplog.at_level(logging.WARNING, logger="repro.test.channel"):
            log_event("test.event", "thing %s happened", "badly",
                      logger=custom, detail=42)
        assert caplog.records[0].name == "repro.test.channel"
        assert caplog.records[0].getMessage() == "thing badly happened"

    def test_every_notice_is_a_warning(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.obs"):
            log_event("test.event", "quiet")
        assert [record.levelno for record in caplog.records] \
            == [logging.WARNING]

    def test_structured_event_recorded_when_tracing(self):
        handle = Telemetry(ObsConfig(trace=True))
        log_event("test.event", "thing %s happened", "badly",
                  logger=logging.getLogger("repro.test.channel"),
                  obs=handle, detail=42)
        assert handle.metrics.get("log.test.event") == 1
        event = handle.events[-1]
        assert event["name"] == "log.test.event"
        assert event["args"]["message"] == "thing badly happened"
        assert event["args"]["detail"] == 42

    def test_noop_when_disabled(self):
        log_event("test.event", "quiet")
        assert len(NULL_TELEMETRY.metrics) == 0


# ----------------------------------------------------------------------
# checkpoint + fault instrumentation
# ----------------------------------------------------------------------

class TestCheckpointCounters:
    def test_save_restore_counters_and_spans(self, tmp_path):
        workload = _workload()
        observe = ObsConfig(trace=True)
        with Session.from_workload(workload, observe=observe) as session:
            session.step()
            path = session.save(str(tmp_path / "s.ckpt"))
            session.restore(path)
            handle = session.telemetry
        assert handle.metrics.get("ckpt.saves") == 1
        assert handle.metrics.get("ckpt.restores") == 1
        assert handle.metrics.get("ckpt.bytes") > 0
        names = [name for _type, name in handle.event_sequence()]
        assert "ckpt.save" in names and "ckpt.restore" in names

    def test_fault_injection_counted(self):
        from concurrent.futures.process import BrokenProcessPool

        from faults import BrokenPoolOnce

        handle = Telemetry(ObsConfig(enabled=True))
        pool = BrokenPoolOnce(fail="submit", at=0, obs=handle)
        with pytest.raises(BrokenProcessPool):
            pool.submit(lambda: None)
        assert handle.metrics.get("faults.injected") == 1


# ----------------------------------------------------------------------
# campaign integration
# ----------------------------------------------------------------------

class TestCampaignMetrics:
    def _specs(self, observe=None):
        from repro.analysis.campaign import expand_request

        return expand_request(_GRID, observe=observe)

    def _campaign(self, cache=None, obs=NULL_TELEMETRY):
        from repro.analysis.campaign import Campaign

        return Campaign(self._specs(ObsConfig(enabled=True)),
                        cache=cache, obs=obs)

    def test_observe_does_not_split_cache_keys(self):
        (plain,) = self._specs()
        (observed,) = self._specs(ObsConfig(trace=True, health=True))
        assert plain.cache_key() == observed.cache_key()

    def test_spec_round_trips_observe(self):
        from repro.analysis.campaign import ExperimentSpec

        (spec,) = self._specs(ObsConfig(enabled=True))
        rebuilt = ExperimentSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))).build_workload()
        assert rebuilt.observe == ObsConfig(enabled=True)

    def test_cell_metrics_aggregate_into_campaign_json(self):
        handle = Telemetry(ObsConfig(enabled=True))
        outcome = self._campaign(obs=handle).run()
        payload = outcome.to_json()
        assert payload["metrics"]["particles.pushed"] > 0
        assert outcome.entries[0].result.metrics["particles.pushed"] > 0
        assert handle.metrics.get("campaign.cells") == 1
        assert handle.metrics.get("campaign.cache.misses", 0.0) == 0.0

    def test_cached_replay_reproduces_metrics(self, tmp_path):
        from repro.analysis.cache import ResultCache

        cache = ResultCache(str(tmp_path / "cache"))
        first = self._campaign(cache=cache).run()
        second = self._campaign(cache=cache).run()
        assert second.entries[0].cache_hit
        assert second.aggregated_metrics() == first.aggregated_metrics()
        handle = Telemetry(ObsConfig(enabled=True))
        self._campaign(cache=cache, obs=handle).run()
        assert handle.metrics.get("campaign.cache.hits") == 1

    def test_campaign_accounting_stays_on_its_registry(self, tmp_path):
        """In-process cells that observe build registries of their own;
        the campaign's ``obs`` keeps exactly the campaign's accounting."""
        from repro.analysis.cache import ResultCache

        cache = ResultCache(str(tmp_path / "cache"))
        handle = Telemetry(ObsConfig(enabled=True))
        outcome = self._campaign(cache=cache, obs=handle).run()
        assert outcome.entries[0].result.metrics["particles.pushed"] > 0
        assert handle.metrics.get("campaign.cells") == 1
        assert handle.metrics.get("campaign.cache.misses") == 1
        assert "particles.pushed" not in handle.metrics
        self._campaign(cache=cache, obs=handle).run()
        assert handle.metrics.get("campaign.cells") == 2
        assert handle.metrics.get("campaign.cache.hits") == 1

    def test_result_metrics_round_trip(self):
        from repro.analysis.campaign import run_spec
        from repro.analysis.metrics import ExperimentResult

        (spec,) = self._specs(ObsConfig(enabled=True))
        result = run_spec(spec)
        assert result.metrics["particles.pushed"] > 0
        replayed = ExperimentResult.from_json(
            json.loads(json.dumps(result.to_json())))
        assert replayed.metrics == result.metrics
        assert "metrics" in result.deterministic_fields()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestCli:
    def test_run_trace_metrics(self, tmp_path, capsys):
        trace_path = tmp_path / "run-trace.json"
        code = cli_main([
            "run", "--workload", "uniform", "--ppc", "8", "--steps", "2",
            "--n-cell", "8,8,8", "--trace", str(trace_path), "--metrics",
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["particles.pushed"] > 0
        assert trace_path.exists()
        with open(trace_path, encoding="utf-8") as fh:
            assert validate_chrome_trace(json.load(fh)) == []

    def test_trace_validate_and_summarize(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        assert cli_main([
            "run", "--ppc", "8", "--steps", "1", "--n-cell", "8,8,8",
            "--trace", str(trace_path),
        ]) == 0
        capsys.readouterr()
        assert cli_main(["trace", "validate", str(trace_path)]) == 0
        assert "OK" in capsys.readouterr().out
        assert cli_main(["trace", "summarize", str(trace_path),
                         "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["spans"]["run"]["count"] == 1

    def test_trace_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"name": "x"}]}))
        assert cli_main(["trace", "validate", str(bad)]) == 1
        assert "invalid" in capsys.readouterr().out

    def test_campaign_metrics_json(self, tmp_path, capsys):
        code = cli_main([
            "campaign", "--workload", "uniform", "--ppc", "8",
            "--configurations", "Baseline", "--steps", "1",
            "--n-cell", "8,8,8", "--no-cache", "--metrics",
            "--trace", str(tmp_path / "c.json"), "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["particles.pushed"] > 0
        with open(tmp_path / "c.json", encoding="utf-8") as fh:
            assert validate_chrome_trace(json.load(fh)) == []


# ----------------------------------------------------------------------
# session facade
# ----------------------------------------------------------------------

class TestSessionObserve:
    def test_bool_shorthand(self):
        with Session.from_workload(_workload(), observe=True) as session:
            assert session.telemetry.enabled
            assert not session.telemetry.tracing

    def test_invalid_observe_rejected(self):
        with pytest.raises(TypeError):
            Session.from_workload(_workload(), observe="yes")

    def test_default_is_the_null_registry(self):
        with Session.from_workload(_workload()) as session:
            assert session.telemetry is NULL_TELEMETRY
