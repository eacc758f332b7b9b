"""The public run object, :class:`repro.api.Session`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session, StepResult
from repro.config import ExecutionConfig
from repro.workloads.uniform import UniformPlasmaWorkload

ALL_COMPONENTS = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz", "rho")


def workload(**kwargs):
    defaults = dict(n_cell=(8, 8, 8), tile_size=(4, 4, 4), ppc=8,
                    max_steps=3)
    defaults.update(kwargs)
    return UniformPlasmaWorkload(**defaults)


class TestConstruction:
    def test_from_config(self):
        session = Session(workload().build_config())
        assert session.num_particles == 8 * 8 * 8 * 8

    def test_from_workload_and_build_session_agree(self):
        a = Session.from_workload(workload())
        b = workload().build_session()
        assert type(a) is type(b) is Session
        assert a.config == b.config

    def test_properties_passthrough(self):
        session = workload().build_session()
        # the one alias the retired wrapper left behind (bench/ spells it)
        assert session.simulation is session
        assert session.pipeline.session is session
        assert session.step_index == 0
        assert session.time == 0.0


class TestRunIterator:
    def test_yields_one_result_per_step(self):
        session = workload().build_session()
        results = list(session.run(3))
        assert [r.step for r in results] == [1, 2, 3]
        assert session.step_index == 3
        dt = session.dt
        for result in results:
            assert isinstance(result, StepResult)
            assert result.time == pytest.approx(result.step * dt)
            assert result.energy is None

    def test_defaults_to_configured_max_steps(self):
        session = workload(max_steps=2).build_session()
        assert len(list(session.run())) == 2

    def test_generator_is_lazy(self):
        session = workload().build_session()
        iterator = session.run(3)
        assert session.step_index == 0
        next(iterator)
        assert session.step_index == 1

    def test_early_exit_stops_stepping(self):
        session = workload().build_session()
        for result in session.run(3):
            if result.step == 1:
                break
        assert session.step_index == 1

    def test_record_energy_populates_results_and_history(self):
        session = workload().build_session()
        results = list(session.run(2, record_energy=True))
        # one initial snapshot + one per step
        assert len(session.energy.history) == 3
        assert all(r.energy is not None for r in results)
        assert results[-1].energy is session.energy.history[-1]

    def test_run_all_returns_breakdown(self):
        session = workload().build_session()
        breakdown = session.run_all(2)
        assert breakdown is session.breakdown
        assert breakdown.steps == 2
        assert breakdown.stage_seconds

    def test_single_step(self):
        session = workload().build_session()
        result = session.step()
        assert result.step == 1
        assert session.step_index == 1


class TestLegacyEquivalence:
    def test_session_run_matches_simulation_run_bitwise(self):
        """Session.run == Session.step calls: fields, J/rho, energy."""
        session = workload().build_session()
        legacy = workload().build_session()
        for _ in session.run(3, record_energy=True):
            pass
        legacy._record_energy()
        for _ in range(3):
            legacy.step()
            legacy._record_energy()
        for name in ALL_COMPONENTS:
            assert np.array_equal(getattr(session.grid, name),
                                  getattr(legacy.grid, name)), name
        assert ([(r.step, r.field_energy, r.kinetic_energy)
                 for r in session.energy.history]
                == [(r.step, r.field_energy, r.kinetic_energy)
                    for r in legacy.energy.history])

    def test_session_run_matches_decomposed_simulation_run(self):
        build = lambda: workload(
            domains=(2, 1, 1),
            execution=ExecutionConfig(backend="threads", num_shards=2))
        with build().build_session() as session:
            for _ in session.run(2, record_energy=True):
                pass
            with build().build_session() as legacy:
                for _ in range(2):
                    legacy.step()
                for name in ALL_COMPONENTS:
                    assert np.array_equal(getattr(session.grid, name),
                                          getattr(legacy.grid, name)), name


class TestLifecycle:
    def test_context_manager_shuts_down_executor(self):
        with workload(
            execution=ExecutionConfig(backend="threads", num_shards=2)
        ).build_session() as session:
            list(session.run(1))
            executor = session.executor
        # pool released; stepping again recreates it lazily
        assert executor is session.executor
        list(session.run(1))
        session.shutdown()


def _digest(session):
    """sha256 over every array of a session's checkpoint state."""
    import hashlib

    from repro.ckpt import capture_state

    _meta, arrays = capture_state(session)
    digest = hashlib.sha256()
    for name in sorted(arrays):
        digest.update(name.encode("ascii"))
        digest.update(arrays[name].tobytes())
    return digest.hexdigest()


def tiny_workload(**kwargs):
    return workload(**dict(dict(n_cell=(4, 4, 4), tile_size=(4, 4, 4),
                                ppc=1, max_steps=2), **kwargs))


class TestOneScatterPath:
    """There is one scatter path: no argument, flag or environment
    variable selects a kernel tier, and the variable that once did,
    ``REPRO_KERNEL_TIER``, changes nothing."""

    RUN = ["run", "--n-cell", "4,4,4", "--tile-size", "4,4,4", "--ppc", "1",
           "--steps", "1", "--format", "json"]

    @pytest.mark.parametrize("entry", [
        "Session", "Session.from_workload", "SimulationConfig"])
    def test_no_constructor_takes_a_tier_request(self, entry):
        from repro.config import GridConfig, SimulationConfig

        build = {
            "Session": lambda: Session(tiny_workload().build_config(),
                                       backend="oracle"),
            "Session.from_workload": lambda: Session.from_workload(
                tiny_workload(), backend="oracle"),
            "SimulationConfig": lambda: SimulationConfig(
                grid=GridConfig(n_cell=(4, 4, 4)), backend="oracle"),
        }[entry]
        with pytest.raises(TypeError, match="backend"):
            build()

    @pytest.mark.parametrize("command", ["run", "campaign", "serve"])
    def test_there_is_no_kernel_tier_flag(self, command, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([command, "--kernel-tier", "oracle"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_ignores_the_retired_tier_variable(self, monkeypatch,
                                                   capsys):
        import json

        from repro.cli import main

        monkeypatch.setenv("REPRO_KERNEL_TIER", "no-such-tier")
        assert main(self.RUN) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["steps"] == 1 and "kernel_tier" not in payload

    def test_serve_ignores_the_retired_tier_variable(self, monkeypatch,
                                                     tmp_path):
        import repro.serve as serve_package
        from repro.cli import main

        started = []
        # cmd_serve imports run_server from the package at call time
        monkeypatch.setattr(serve_package, "run_server",
                            lambda config: started.append(config) or 0)
        monkeypatch.setenv("REPRO_KERNEL_TIER", "no-such-tier")
        assert main(["serve", "--port", "0",
                     "--root", str(tmp_path / "root")]) == 0
        assert len(started) == 1

    @pytest.mark.parametrize("value", ["oracle", "fused", "no-such-tier"])
    def test_a_session_ignores_the_retired_tier_variable(self, value,
                                                         monkeypatch):
        with tiny_workload().build_session() as session:
            session.run_all(2)
            expected = _digest(session)
        monkeypatch.setenv("REPRO_KERNEL_TIER", value)
        with tiny_workload().build_session() as session:
            session.run_all(2)
            assert _digest(session) == expected


class TestRunIsolation:
    """Nothing a run computes with belongs to the process: sessions in
    one process never share state."""

    def test_interleaved_sessions_match_their_solo_runs(self):
        def solo(seed):
            with tiny_workload(seed=seed, max_steps=3).build_session() \
                    as session:
                session.run_all(3)
                return _digest(session)

        expected = [solo(1), solo(2)]
        assert expected[0] != expected[1]
        with tiny_workload(seed=1, max_steps=3).build_session() as first, \
                tiny_workload(seed=2, max_steps=3).build_session() as second:
            for _ in range(3):
                first.step()
                second.step()
            assert [_digest(first), _digest(second)] == expected

    @pytest.mark.parametrize("domains", [(1, 1, 1), (2, 1, 1)],
                             ids=["global", "domains2"])
    def test_sharded_and_decomposed_paths_match_serial(self, domains):
        """The threads backend's shard-private scratch grids and domain
        slabs deposit what the serial backend does, bit for bit, at the
        same shard count."""
        digests = []
        for backend in ("serial", "threads"):
            with workload(domains=domains, max_steps=2,
                          execution=ExecutionConfig(
                              backend=backend, num_shards=2)
                          ).build_session() as session:
                session.run_all(2)
                digests.append(_digest(session))
        assert digests[0] == digests[1]


def test_run_reports_a_finite_energy_drift_on_a_cold_start(capsys):
    """An LWFA run starts with a cold plasma and no laser: its first
    energy records are 0.  ``repro run --record-energy`` measures the
    drift against the first non-zero total, as the health probe does,
    not against 0 (which read ``inf`` on every LWFA run)."""
    import json

    from repro.cli import main

    assert main(["run", "--workload", "lwfa", "--ppc", "1", "--steps", "4",
                 "--tile-size", "4,4,8", "--record-energy",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    totals = [r["field"] + r["kinetic"] for r in payload["energy_history"]]
    assert totals[0] == 0.0
    first = next(total for total in totals if total != 0.0)
    assert payload["relative_energy_drift"] == pytest.approx(
        abs(totals[-1] - first) / abs(first))
