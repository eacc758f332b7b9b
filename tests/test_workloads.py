"""Tests for the evaluation workloads (uniform plasma, LWFA, PM, PME)."""

import numpy as np
import pytest

from repro import constants
from repro.workloads.lwfa import LWFAWorkload
from repro.workloads.nbody_pm import ParticleMeshGravity
from repro.workloads.pme import PMEChargeAssignment
from repro.workloads.uniform import (
    PPC_SCAN,
    UniformPlasmaWorkload,
    ppc_triple,
)

from helpers import gather_soa


class TestUniformWorkload:
    def test_ppc_scan_matches_paper(self):
        assert PPC_SCAN == {1: (1, 1, 1), 8: (2, 2, 2), 64: (4, 4, 4),
                            128: (8, 4, 4)}

    @pytest.mark.parametrize("ppc", [1, 8, 64, 128])
    def test_ppc_triple_product(self, ppc):
        assert np.prod(ppc_triple(ppc)) == ppc

    def test_cube_ppc_outside_scan(self):
        assert ppc_triple(27) == (3, 3, 3)

    def test_invalid_ppc_rejected(self):
        # both builders read the one ppc_triple, error message included
        for workload in (UniformPlasmaWorkload(ppc=7), LWFAWorkload(ppc=7)):
            with pytest.raises(ValueError, match="not part of the paper's"):
                workload.build_config()

    def test_config_structure(self):
        workload = UniformPlasmaWorkload(n_cell=(8, 8, 8), ppc=8, max_steps=3)
        config = workload.build_config()
        assert config.grid.n_cell == (8, 8, 8)
        assert config.species[0].particles_per_cell == 8
        assert config.max_steps == 3
        assert all(bc == "periodic" for bc in config.grid.field_boundary)

    def test_build_simulation_loads_particles(self):
        workload = UniformPlasmaWorkload(n_cell=(4, 4, 4), tile_size=(4, 4, 4),
                                         ppc=8, max_steps=1)
        simulation = workload.build_session()
        assert simulation.num_particles == 4 * 4 * 4 * 8

    def test_scramble_changes_order_not_count(self):
        workload = UniformPlasmaWorkload(n_cell=(4, 4, 4), tile_size=(4, 4, 4),
                                         ppc=8, max_steps=1)
        simulation = workload.build_session()
        before = gather_soa(simulation.containers[0])["x"].copy()
        workload.scramble_particles(simulation)
        after = gather_soa(simulation.containers[0])["x"]
        assert before.shape == after.shape
        assert not np.array_equal(before, after)
        np.testing.assert_allclose(np.sort(before), np.sort(after))


class TestLWFAWorkload:
    def test_config_structure(self):
        workload = LWFAWorkload(n_cell=(8, 8, 32), tile_size=(8, 8, 16),
                                ppc=8, max_steps=2)
        config = workload.build_config()
        assert config.laser is not None
        assert config.moving_window.enabled
        assert config.grid.field_boundary[2] == "absorbing"
        assert config.species[0].thermal_velocity == 0.0

    def test_build_simulation_plasma_starts_downstream(self):
        workload = LWFAWorkload(n_cell=(8, 8, 32), tile_size=(8, 8, 16),
                                ppc=1, max_steps=1)
        simulation = workload.build_session()
        z = gather_soa(simulation.containers[0])["z"]
        assert z.size > 0
        extent = simulation.grid.hi[2] - simulation.grid.lo[2]
        assert z.min() > simulation.grid.lo[2] + 0.05 * extent

    def test_density_profile_ramps_up(self):
        workload = LWFAWorkload()
        profile = workload.density_profile(extent_z=1.0)
        values = profile(np.array([0.0, 0.1, 0.5, 1.0]))
        assert values[0] == pytest.approx(0.0)
        assert values[-1] == pytest.approx(1.0)
        assert np.all(np.diff(values) >= 0.0)

    def test_short_run_executes(self):
        workload = LWFAWorkload(n_cell=(4, 4, 16), tile_size=(4, 4, 16),
                                ppc=1, max_steps=2)
        simulation = workload.build_session()
        simulation.run_all(2)
        assert simulation.step_index == 2
        assert np.isfinite(simulation.grid.field_energy())


class TestParticleMeshGravity:
    def test_mass_conservation(self):
        pm = ParticleMeshGravity(n_cell=(16, 16, 16), box_size=1.0)
        positions, _, masses = pm.random_particles(500, total_mass=3.0e11, seed=1)
        rho = pm.deposit_mass(positions, masses)
        cell_volume = np.prod(pm.cell_size)
        assert rho.sum() * cell_volume == pytest.approx(3.0e11, rel=1e-12)

    def test_qsp_order_also_conserves_mass(self):
        pm = ParticleMeshGravity(n_cell=(8, 8, 8), shape_order=3)
        positions, _, masses = pm.random_particles(100, seed=2)
        rho = pm.deposit_mass(positions, masses)
        assert rho.sum() * np.prod(pm.cell_size) == pytest.approx(masses.sum(),
                                                                  rel=1e-12)

    def test_potential_mean_free(self):
        pm = ParticleMeshGravity(n_cell=(16, 16, 16))
        positions, _, masses = pm.random_particles(100, seed=3)
        phi = pm.solve_potential(pm.deposit_mass(positions, masses))
        assert abs(phi.mean()) < 1e-6 * np.abs(phi).max()

    def test_point_mass_attracts(self):
        """The acceleration at a probe position points towards a point mass."""
        pm = ParticleMeshGravity(n_cell=(32, 32, 32), box_size=1.0)
        center = np.array([[0.5, 0.5, 0.5]])
        rho = pm.deposit_mass(center, np.array([1.0e15]))
        phi = pm.solve_potential(rho)
        fields = pm.acceleration_field(phi)
        probe = np.array([[0.75, 0.5, 0.5]])
        accel = pm.gather_acceleration(probe, fields)
        assert accel[0, 0] < 0.0               # pulled in -x towards the mass
        assert abs(accel[0, 1]) < abs(accel[0, 0]) * 0.1
        assert abs(accel[0, 2]) < abs(accel[0, 0]) * 0.1

    def test_step_keeps_particles_in_box(self):
        pm = ParticleMeshGravity(n_cell=(8, 8, 8), box_size=1.0)
        positions, velocities, masses = pm.random_particles(50, seed=4)
        positions, velocities, rho = pm.step(positions, velocities, masses,
                                             dt=1.0e-3)
        assert np.all((positions >= 0.0) & (positions < 1.0))
        assert rho.shape == (8, 8, 8)

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            ParticleMeshGravity(shape_order=2)
        with pytest.raises(ValueError):
            ParticleMeshGravity(box_size=-1.0)
        pm = ParticleMeshGravity(n_cell=(8, 8, 8))
        with pytest.raises(ValueError):
            pm.deposit_mass(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            pm.solve_potential(np.zeros((4, 4, 4)))


class TestPMECharges:
    def test_charge_conservation(self):
        pme = PMEChargeAssignment(n_cell=(16, 16, 16))
        positions, charges = pme.random_molecule(200, seed=5)
        rho = pme.assign_charges(positions, charges)
        assert pme.total_mesh_charge(rho) == pytest.approx(charges.sum(),
                                                           abs=1e-25)

    def test_neutral_molecule_has_zero_total_charge(self):
        pme = PMEChargeAssignment()
        _, charges = pme.random_molecule(64, seed=6)
        assert charges.sum() == pytest.approx(0.0, abs=1e-25)

    def test_reciprocal_energy_nonnegative(self):
        pme = PMEChargeAssignment(n_cell=(16, 16, 16))
        positions, charges = pme.random_molecule(64, seed=7)
        energy = pme.reciprocal_energy(pme.assign_charges(positions, charges))
        assert energy >= 0.0

    def test_two_opposite_charges_attract_less_energy_when_far(self):
        """The reciprocal energy of a +/- pair decreases as they separate."""
        pme = PMEChargeAssignment(n_cell=(32, 32, 32), box_size=3.0e-9,
                                  ewald_beta=2.0e9)
        q = constants.Q_PROTON
        near = np.array([[1.5e-9, 1.5e-9, 1.40e-9], [1.5e-9, 1.5e-9, 1.60e-9]])
        far = np.array([[1.5e-9, 1.5e-9, 1.00e-9], [1.5e-9, 1.5e-9, 2.00e-9]])
        charges = np.array([q, -q])
        e_near = pme.reciprocal_energy(pme.assign_charges(near, charges))
        e_far = pme.reciprocal_energy(pme.assign_charges(far, charges))
        assert e_near < e_far

    def test_invalid_inputs(self):
        pme = PMEChargeAssignment()
        with pytest.raises(ValueError):
            PMEChargeAssignment(shape_order=2)
        with pytest.raises(ValueError):
            pme.assign_charges(np.zeros((3, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            pme.reciprocal_energy(np.zeros((8, 8, 8)))
