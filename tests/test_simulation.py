"""Integration tests of the full PIC loop."""

import numpy as np
import pytest

from repro import constants
from repro.api import Session
from repro.baselines.configs import make_strategy
from repro.config import GridConfig, SimulationConfig, SpeciesConfig
from repro.pic.simulation import ReferenceDeposition


def small_config(**kwargs):
    defaults = dict(
        grid=GridConfig(n_cell=(8, 8, 8), hi=(8.0e-6,) * 3, tile_size=(8, 8, 8)),
        species=(SpeciesConfig(density=1.0e24, ppc=(1, 1, 1)),),
        shape_order=1,
        max_steps=3,
        field_solver="ckc",
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


class TestSimulationConstruction:
    def test_particles_loaded(self):
        sim = Session(small_config())
        assert sim.num_particles == 8 * 8 * 8

    def test_no_plasma_option(self):
        sim = Session(small_config(), load_plasma=False)
        assert sim.num_particles == 0

    def test_default_strategy_is_reference(self):
        sim = Session(small_config())
        assert isinstance(sim.deposition, ReferenceDeposition)

    def test_time_step_positive(self):
        sim = Session(small_config())
        assert sim.dt > 0.0
        assert sim.time == 0.0


class TestSimulationRun:
    def test_run_advances_steps_and_time(self):
        sim = Session(small_config())
        sim.run_all(3)
        assert sim.step_index == 3
        assert sim.time == pytest.approx(3 * sim.dt)

    def test_particle_count_conserved_with_periodic_boundaries(self):
        sim = Session(small_config())
        initial = sim.num_particles
        sim.run_all(3)
        assert sim.num_particles == initial

    def test_positions_stay_inside_domain(self):
        sim = Session(small_config())
        sim.run_all(3)
        soa = sim.containers[0].gather_soa()
        for axis, coord in enumerate((soa["x"], soa["y"], soa["z"])):
            assert np.all(coord >= sim.grid.lo[axis])
            assert np.all(coord < sim.grid.hi[axis])

    def test_fields_remain_finite(self):
        sim = Session(small_config())
        sim.run_all(3)
        for arr in sim.grid.field_arrays().values():
            assert np.all(np.isfinite(arr))

    def test_breakdown_records_all_stages(self):
        sim = Session(small_config())
        sim.run_all(2)
        stages = set(sim.breakdown.seconds)
        assert {"field_gather_push", "boundary_redistribute",
                "current_deposition", "field_solve"} <= stages
        assert sim.breakdown.steps == 2
        assert sim.breakdown.total > 0.0

    def test_energy_recording(self):
        sim = Session(small_config())
        sim.run_all(2, record_energy=True)
        assert len(sim.energy.history) == 3
        assert np.isfinite(sim.energy.relative_energy_drift())

    def test_cold_uniform_plasma_stays_quiet(self):
        """A cold, neutralised uniform plasma should not blow up."""
        config = small_config(
            species=(SpeciesConfig(density=1.0e23, ppc=(1, 1, 1),
                                   thermal_velocity=0.0),),
            max_steps=5,
        )
        sim = Session(config)
        sim.run_all(5, record_energy=True)
        final_kinetic = sim.energy.history[-1].kinetic_energy
        # the self-field pushes particles a little, but far below relativistic
        soa = sim.containers[0].gather_soa()
        u_max = np.max(np.abs(np.concatenate([soa["ux"], soa["uy"], soa["uz"]])))
        assert u_max < 0.5 * constants.C_LIGHT
        assert np.isfinite(final_kinetic)


class TestSimulationWithStrategies:
    @pytest.mark.parametrize("name", ["Baseline", "MatrixPIC (FullOpt)"])
    def test_instrumented_strategy_accumulates_counters(self, name):
        sim = Session(small_config(max_steps=2),
                         deposition=make_strategy(name))
        sim.run_all(2)
        combined = sim.deposition_counters.combined()
        assert combined.total_events() > 0
        assert combined.effective_flops > 0

    def test_strategy_and_reference_agree_on_physics(self):
        """Running the loop with the MPU strategy gives the same fields as
        running it with the reference kernel."""
        sim_ref = Session(small_config(max_steps=3))
        sim_mpu = Session(small_config(max_steps=3),
                             deposition=make_strategy("MatrixPIC (FullOpt)"))
        sim_ref.run_all(3)
        sim_mpu.run_all(3)
        scale = np.max(np.abs(sim_ref.grid.ex)) or 1.0
        np.testing.assert_allclose(sim_mpu.grid.ex, sim_ref.grid.ex,
                                   atol=1e-9 * scale)
        np.testing.assert_allclose(sim_mpu.grid.jz, sim_ref.grid.jz,
                                   atol=1e-9 * (np.max(np.abs(sim_ref.grid.jz)) or 1.0))
