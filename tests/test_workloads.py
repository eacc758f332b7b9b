"""Tests for the evaluation workloads (uniform plasma, LWFA)."""

import numpy as np
import pytest

from repro.workloads.lwfa import LWFAWorkload
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
