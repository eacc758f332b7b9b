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
