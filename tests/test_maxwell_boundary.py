"""Tests for the FDTD solvers, boundary conditions, laser and moving window."""

import numpy as np
import pytest

from repro import constants
from repro.api import Session
from repro.config import (
    GridConfig,
    LaserConfig,
    MovingWindowConfig,
    SimulationConfig,
    SpeciesConfig,
)
from repro.pic.boundary import FieldBoundaryConditions
from repro.pic.grid import Grid
from repro.pic.laser import LaserAntenna
from repro.pic.maxwell import FDTDSolver
from repro.pic.moving_window import MovingWindow
from repro.pic.particles import ParticleContainer
from repro.pic.plasma import load_plasma_slab
from repro.pipeline import MigrateStage, MovingWindowStage

from helpers import cells_outside_their_tile


def make_grid(n=16, bc=("periodic",) * 3):
    config = GridConfig(n_cell=(n, n, n), hi=(n * 1.0e-6,) * 3,
                        field_boundary=bc, particle_boundary=bc)
    return Grid(config), config


class TestFDTDSolver:
    def test_rejects_unknown_scheme(self):
        grid, _ = make_grid(8)
        with pytest.raises(ValueError):
            FDTDSolver(grid, scheme="spectral")

    def test_zero_fields_stay_zero(self):
        grid, _ = make_grid(8)
        solver = FDTDSolver(grid, scheme="yee")
        solver.step(1.0e-16)
        assert np.all(grid.ex == 0.0)
        assert np.all(grid.bz == 0.0)

    @pytest.mark.parametrize("scheme", ["yee", "ckc"])
    def test_plane_wave_propagates_stably(self, scheme):
        grid, config = make_grid(16)
        dz = grid.cell_size[2]
        # seed a transverse plane wave E_x, B_y consistent with propagation +z
        z = (np.arange(16) + 0.5) * dz
        k = 2.0 * np.pi / (8.0 * dz)
        e0 = 1.0e6
        grid.ex[:] = np.sin(k * z)[None, None, :] * e0
        grid.by[:] = np.sin(k * z)[None, None, :] * e0 / constants.C_LIGHT
        solver = FDTDSolver(grid, scheme=scheme)
        cfl = 0.5 if scheme == "yee" else 0.9
        dt = cfl * dz / (constants.C_LIGHT * np.sqrt(3.0))
        initial_energy = grid.field_energy()
        for _ in range(20):
            solver.step(dt)
        final_energy = grid.field_energy()
        assert np.isfinite(final_energy)
        # a propagating vacuum wave conserves energy to a few percent
        assert final_energy == pytest.approx(initial_energy, rel=0.1)

    def test_current_drives_electric_field(self):
        grid, _ = make_grid(8)
        grid.jz[:] = 1.0
        solver = FDTDSolver(grid)
        dt = 1.0e-16
        solver.push_e(dt)
        expected = -dt / constants.EPSILON_0
        np.testing.assert_allclose(grid.ez, expected, rtol=1e-12)

    def test_ckc_coefficients_normalised(self):
        grid, _ = make_grid(8)
        solver = FDTDSolver(grid, scheme="ckc")
        total = solver.alpha + 4.0 * solver.beta + 4.0 * solver.gamma
        assert total == pytest.approx(1.0)


class TestBoundaries:
    def test_pec_zeroes_tangential_e(self):
        grid, config = make_grid(8, bc=("periodic", "periodic", "pec"))
        grid.ex[:] = 1.0
        grid.ey[:] = 1.0
        grid.ez[:] = 1.0
        FieldBoundaryConditions(config).apply(grid)
        assert np.all(grid.ex[:, :, 0] == 0.0)
        assert np.all(grid.ex[:, :, -1] == 0.0)
        assert np.all(grid.ey[:, :, 0] == 0.0)
        # the normal component is untouched
        assert np.all(grid.ez[:, :, 0] == 1.0)

    def test_absorbing_damps_boundary_fields(self):
        grid, config = make_grid(16, bc=("periodic", "periodic", "absorbing"))
        grid.ex[:] = 1.0
        FieldBoundaryConditions(config, damping_cells=4).apply(grid)
        assert np.all(grid.ex[:, :, 0] < 1.0)
        assert np.all(grid.ex[:, :, 8] == 1.0)   # interior untouched

    def test_periodic_axes_untouched(self):
        grid, config = make_grid(8)
        grid.ex[:] = 1.0
        FieldBoundaryConditions(config).apply(grid)
        assert np.all(grid.ex == 1.0)


class TestLaser:
    def test_injection_adds_field(self):
        grid, _ = make_grid(16)
        laser = LaserConfig(a0=2.0, wavelength=0.8e-6, waist=4.0e-6,
                            duration=5.0e-15, injection_position=2.0e-6)
        antenna = LaserAntenna(laser, grid, axis=2)
        t = antenna.t_peak  # inject at the envelope peak
        antenna.inject(grid, t, dt=1.0e-16)
        assert np.max(np.abs(grid.ex)) > 0.0
        # only the antenna plane is driven
        driven_planes = np.nonzero(np.abs(grid.ex).sum(axis=(0, 1)))[0]
        assert driven_planes.size == 1

    def test_envelope_peaks_at_t_peak(self):
        grid, _ = make_grid(8)
        antenna = LaserAntenna(LaserConfig(), grid)
        assert antenna.envelope(antenna.t_peak) == pytest.approx(1.0)
        assert antenna.envelope(0.0) < 1.0

    def test_no_injection_long_after_pulse(self):
        grid, _ = make_grid(8)
        antenna = LaserAntenna(LaserConfig(duration=1.0e-15), grid)
        antenna.inject(grid, antenna.t_peak + 100.0 * 1.0e-15, dt=1.0e-16)
        assert np.all(grid.ex == 0.0)


class TestMovingWindow:
    def _setup(self):
        config = GridConfig(n_cell=(4, 4, 8), hi=(4.0, 4.0, 8.0),
                            tile_size=(4, 4, 8),
                            particle_boundary=("periodic", "periodic", "absorbing"))
        grid = Grid(config)
        container = ParticleContainer(config, SpeciesConfig())
        return config, grid, container

    def test_disabled_window_does_nothing(self):
        _, grid, container = self._setup()
        window = MovingWindow(MovingWindowConfig(enabled=False), seed=0)
        assert window.advance(grid, [container], dt=1.0, step=10) == 0

    def test_window_shifts_fields_and_origin(self):
        _, grid, container = self._setup()
        grid.ex[:, :, 3] = 7.0
        window = MovingWindow(MovingWindowConfig(enabled=True, axis=2, speed=1.0),
                              seed=0)
        old_lo = grid.lo[2]
        shift = window.advance(grid, [container], dt=2.0, step=0)
        assert shift == 2
        assert grid.lo[2] == pytest.approx(old_lo + 2.0)
        # the marked plane moved from index 3 to index 1
        assert np.all(grid.ex[:, :, 1] == 7.0)
        # the newly exposed leading slab is zero
        assert np.all(grid.ex[:, :, -2:] == 0.0)

    def test_window_waits_for_start_step(self):
        _, grid, container = self._setup()
        window = MovingWindow(MovingWindowConfig(enabled=True, axis=2,
                                                 speed=1.0, start_step=5),
                              seed=0)
        assert window.advance(grid, [container], dt=1.0, step=0) == 0
        assert window.advance(grid, [container], dt=1.0, step=5) == 1

    # -- a shift is a particle boundary event: moving_window, then migrate
    @staticmethod
    def _shift_once(z):
        """A window session holding particles at ``z`` (ids 0, 1, ...),
        after one one-cell shift through the two stages."""
        config = SimulationConfig(
            grid=GridConfig(
                n_cell=(4, 4, 8), hi=(4.0, 4.0, 8.0), tile_size=(4, 4, 4),
                field_boundary=("periodic", "periodic", "absorbing"),
                particle_boundary=("periodic", "periodic", "absorbing")),
            species=(SpeciesConfig(ppc=(1, 1, 2)),),
            moving_window=MovingWindowConfig(enabled=True, axis=2, speed=1.0))
        session = Session(config, load_plasma=False)
        session.dt = 1.0  # one cell per shift
        half = np.full(len(z), 0.5)
        session.containers[0].add_particles(session.grid, x=half, y=half,
                                            z=np.array(z, dtype=float))
        reference = np.random.default_rng(config.seed + 1)
        MovingWindowStage().run(session)
        MigrateStage().run(session)
        assert (session.grid.lo[2], session.grid.hi[2]) == (1.0, 9.0)
        return session, reference

    def test_migrate_absorbs_what_the_window_left_behind(self):
        session, _ = self._shift_once([0.5, 4.5])
        container = session.containers[0]
        ids = container.gather_soa()["ids"]
        # z = 0.5 is behind the new lower edge; z = 4.5 stays and moves
        # from the second tile's box into the first's
        assert 0 not in ids and 1 in ids
        (kept,) = [tile for tile in container.tiles if 1 in tile.ids]
        assert kept.cell_lo[2] == 0
        assert cells_outside_their_tile(session.grid, container) == 0

    def test_particles_past_the_old_leading_edge_stay(self):
        # the push carried it into [old_hi, new_hi): inside the new box
        session, _ = self._shift_once([8.5])
        container = session.containers[0]
        assert 0 in container.gather_soa()["ids"]
        assert cells_outside_their_tile(session.grid, container) == 0

    def test_window_refills_the_exposed_slab(self):
        session, reference = self._shift_once([])
        z = session.containers[0].gather_soa()["z"]
        # ppc = 2 in each of the 4 x 4 cells of the exposed layer [8, 9)
        assert z.shape[0] == 4 * 4 * 2
        assert np.all((z >= 8.0) & (z < 9.0))
        # ... jittered from the window's own stream, seeded seed + 1
        expected = ParticleContainer(session.config.grid,
                                     session.config.species[0])
        load_plasma_slab(session.grid, expected, expected.species,
                         z_lo=8.0, z_hi=9.0, rng=reference)
        assert np.array_equal(np.sort(z), np.sort(expected.gather_soa()["z"]))
        assert (session.moving_window.rng.bit_generator.state
                == reference.bit_generator.state)
