"""Tests for plasma loading and diagnostics."""

import numpy as np
import pytest

from repro.config import GridConfig, SpeciesConfig
from repro.pic.diagnostics import (
    EnergyDiagnostic,
    RuntimeBreakdown,
    current_residual,
    total_deposited_charge,
    total_particle_charge,
)
from repro.pic.deposition.reference import deposit_rho_reference
from repro.pic.grid import Grid
from repro.pic.particles import ParticleContainer
from repro.pic.plasma import load_plasma_slab, load_uniform_plasma


@pytest.fixture
def setup():
    config = GridConfig(n_cell=(8, 8, 8), hi=(8.0e-6,) * 3, tile_size=(8, 8, 8))
    grid = Grid(config)
    species = SpeciesConfig(density=1.0e24, ppc=(2, 2, 2))
    container = ParticleContainer(config, species)
    return config, grid, species, container


class TestPlasmaLoading:
    def test_uniform_plasma_particle_count(self, setup):
        _, grid, species, container = setup
        n = load_uniform_plasma(grid, container, species)
        assert n == 8 * 8 * 8 * 8
        assert container.num_particles == n

    def test_uniform_plasma_positions_inside_domain(self, setup):
        _, grid, species, container = setup
        load_uniform_plasma(grid, container, species)
        soa = container.gather_soa()
        for axis, coord in enumerate((soa["x"], soa["y"], soa["z"])):
            assert np.all(coord >= grid.lo[axis])
            assert np.all(coord < grid.hi[axis])

    def test_uniform_plasma_reproduces_density(self, setup):
        _, grid, species, container = setup
        load_uniform_plasma(grid, container, species)
        total_weight = container.gather_soa()["w"].sum()
        volume = np.prod(grid.hi - grid.lo)
        assert total_weight == pytest.approx(species.density * volume, rel=1e-12)

    def test_uniform_plasma_thermal_spread(self, setup):
        _, grid, species, container = setup
        load_uniform_plasma(grid, container, species)
        ux = container.gather_soa()["ux"]
        assert np.std(ux) == pytest.approx(species.thermal_velocity, rel=0.1)

    def test_slab_loading_restricted_to_range(self, setup):
        _, grid, species, container = setup
        z_lo, z_hi = 2.0e-6, 5.0e-6
        load_plasma_slab(grid, container, species, z_lo, z_hi)
        z = container.gather_soa()["z"]
        assert z.size > 0
        assert np.all(z >= z_lo - grid.cell_size[2])
        assert np.all(z < z_hi + grid.cell_size[2])

    def test_slab_with_density_profile(self, setup):
        _, grid, species, container = setup
        load_plasma_slab(grid, container, species, 0.0, 8.0e-6,
                         density_profile=lambda z: np.zeros_like(z))
        assert container.gather_soa()["w"].sum() == pytest.approx(0.0)

    def test_empty_slab(self, setup):
        _, grid, species, container = setup
        added = load_plasma_slab(grid, container, species, 9.0e-6, 10.0e-6)
        assert added == 0


class TestDiagnostics:
    def test_runtime_breakdown_fractions_sum_to_one(self):
        breakdown = RuntimeBreakdown()
        breakdown.record_stage("gather_push", "field_gather_push", 2.0)
        breakdown.record_stage("deposit", "current_deposition", 6.0)
        fractions = breakdown.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions["current_deposition"] == pytest.approx(0.75)

    def test_breakdown_rows_ordered(self):
        breakdown = RuntimeBreakdown()
        breakdown.record_stage("solve", "field_solve", 1.0)
        breakdown.record_stage("gather_push", "field_gather_push", 2.0)
        rows = breakdown.as_rows()
        assert rows[0]["stage"] == "field_gather_push"

    def test_energy_diagnostic_drift(self, setup):
        _, grid, species, container = setup
        load_uniform_plasma(grid, container, species)
        diag = EnergyDiagnostic()
        diag.record(0, grid, [container])
        diag.record(1, grid, [container])
        assert diag.relative_energy_drift() == pytest.approx(0.0)

    def test_total_charge_consistency(self, setup):
        """Deposited charge equals the sum of macro-particle charges."""
        _, grid, species, container = setup
        load_uniform_plasma(grid, container, species)
        deposit_rho_reference(grid, container, order=1)
        assert total_deposited_charge(grid) == pytest.approx(
            total_particle_charge(container), rel=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_total_charge_conserved_all_orders(self, setup, order):
        _, grid, species, container = setup
        load_uniform_plasma(grid, container, species)
        grid.zero_charge()
        deposit_rho_reference(grid, container, order=order)
        assert total_deposited_charge(grid) == pytest.approx(
            total_particle_charge(container), rel=1e-12)

    def test_current_residual(self, setup):
        config, _, _, _ = setup
        a, b = Grid(config), Grid(config)
        a.jx[0, 0, 0] = 1.0
        assert current_residual(a, b) == pytest.approx(1.0)
        b.jx[0, 0, 0] = 1.0
        assert current_residual(a, b) == 0.0
