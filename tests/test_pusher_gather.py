"""Tests for the Boris pusher and the field gather."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import constants
from repro.config import GridConfig, SpeciesConfig
from repro.pic.gather import gather_field, gather_fields_for_tile
from repro.pic.grid import Grid
from repro.pic.particles import ParticleContainer, ParticleTile
from repro.pic.pusher import (
    BorisPusher,
    boris_push_momentum,
    lorentz_factor,
    velocities,
)
from repro.pic.shapes import shape_factors, shape_support
from repro.pic.stencil import StencilOperator, box_geometry

from helpers import FIELD_NAMES, random_field_grid


def _single(value=0.0):
    return np.array([value])


class TestLorentzFactor:
    def test_rest_particle(self):
        assert lorentz_factor(_single(), _single(), _single())[0] == pytest.approx(1.0)

    def test_known_gamma(self):
        # u = gamma v; for gamma = 2, |u| = sqrt(3) c
        u = np.sqrt(3.0) * constants.C_LIGHT
        assert lorentz_factor(_single(u), _single(), _single())[0] == pytest.approx(2.0)

    def test_velocities_below_c(self):
        vx, vy, vz = velocities(_single(1.0e10), _single(0.0), _single(0.0))
        assert abs(vx[0]) < constants.C_LIGHT


class TestBorisPush:
    def test_pure_electric_acceleration(self):
        q, m = constants.Q_ELECTRON, constants.M_ELECTRON
        dt = 1.0e-15
        e_field = 1.0e6
        ux, uy, uz = boris_push_momentum(
            _single(), _single(), _single(),
            _single(e_field), _single(), _single(),
            _single(), _single(), _single(), q, m, dt)
        assert ux[0] == pytest.approx(q * e_field * dt / m)
        assert uy[0] == pytest.approx(0.0)
        assert uz[0] == pytest.approx(0.0)

    def test_pure_magnetic_rotation_conserves_energy(self):
        q, m = constants.Q_ELECTRON, constants.M_ELECTRON
        dt = 1.0e-13
        u0 = 1.0e7
        ux, uy, uz = boris_push_momentum(
            _single(u0), _single(), _single(),
            _single(), _single(), _single(),
            _single(), _single(), _single(1.0e-2), q, m, dt)
        mag0 = u0
        mag1 = np.sqrt(ux[0]**2 + uy[0]**2 + uz[0]**2)
        assert mag1 == pytest.approx(mag0, rel=1e-12)
        # the particle must actually have rotated
        assert abs(uy[0]) > 0.0

    def test_larmor_rotation_direction(self):
        # an electron in +z magnetic field moving along +x rotates towards +y
        q, m = constants.Q_ELECTRON, constants.M_ELECTRON
        ux, uy, _ = boris_push_momentum(
            _single(1.0e6), _single(), _single(),
            _single(), _single(), _single(),
            _single(), _single(), _single(1.0e-3), q, m, 1.0e-13)
        assert uy[0] > 0.0

    def test_zero_field_is_identity(self):
        q, m = constants.Q_ELECTRON, constants.M_ELECTRON
        ux, uy, uz = boris_push_momentum(
            _single(3.0e6), _single(-2.0e6), _single(1.0e6),
            _single(), _single(), _single(),
            _single(), _single(), _single(), q, m, 1.0e-14)
        assert ux[0] == pytest.approx(3.0e6)
        assert uy[0] == pytest.approx(-2.0e6)
        assert uz[0] == pytest.approx(1.0e6)

    def test_hoisted_terms_are_bitwise_the_spelled_out_update(self):
        """``qmdt2 * e`` and ``1 + t^2`` are computed once; the update
        is bit for bit the expression that recomputed them."""
        def spelled_out(ux, uy, uz, ex, ey, ez, bx, by, bz, charge, mass,
                        dt):
            qmdt2 = charge * dt / (2.0 * mass)
            uxm = ux + qmdt2 * ex
            uym = uy + qmdt2 * ey
            uzm = uz + qmdt2 * ez
            gamma = lorentz_factor(uxm, uym, uzm)
            tx = qmdt2 * bx / gamma
            ty = qmdt2 * by / gamma
            tz = qmdt2 * bz / gamma
            t2 = tx**2 + ty**2 + tz**2
            sx = 2.0 * tx / (1.0 + t2)
            sy = 2.0 * ty / (1.0 + t2)
            sz = 2.0 * tz / (1.0 + t2)
            upx = uxm + (uym * tz - uzm * ty)
            upy = uym + (uzm * tx - uxm * tz)
            upz = uzm + (uxm * ty - uym * tx)
            uxp = uxm + (upy * sz - upz * sy)
            uyp = uym + (upz * sx - upx * sz)
            uzp = uzm + (upx * sy - upy * sx)
            return (uxp + qmdt2 * ex, uyp + qmdt2 * ey, uzp + qmdt2 * ez)

        rng = np.random.default_rng(11)
        n = 257
        momenta = [rng.normal(0.0, 2.0e8, n) for _ in range(3)]
        e_fields = [rng.normal(0.0, 1.0e10, n) for _ in range(3)]
        b_fields = [rng.normal(0.0, 30.0, n) for _ in range(3)]
        args = (*momenta, *e_fields, *b_fields, constants.Q_ELECTRON,
                constants.M_ELECTRON, 3.0e-13)
        for got, expected in zip(boris_push_momentum(*args),
                                 spelled_out(*args)):
            assert np.array_equal(got, expected)


def _tile_of(x, y, z, cell_lo, cell_hi):
    tile = ParticleTile((0, 0, 0), cell_lo, cell_hi)
    tile.append(x=x, y=y, z=z)
    return tile


class TestGather:
    @pytest.fixture
    def grid(self):
        return Grid(GridConfig(n_cell=(8, 8, 8), hi=(8.0, 8.0, 8.0)))

    def test_uniform_field_gathers_exactly(self, grid):
        grid.ex[:] = 5.0
        value = gather_field(grid, grid.ex, np.array([3.3]), np.array([4.7]),
                             np.array([1.1]), order=1)
        assert value[0] == pytest.approx(5.0)

    @pytest.mark.parametrize("order", [1, 3])
    def test_linear_field_interpolated_linearly(self, grid, order):
        # a field linear in x is reproduced exactly by first- and third-order
        # B-spline interpolation away from the periodic wrap
        x_nodes = np.arange(8)
        grid.ex[:] = x_nodes[:, None, None].astype(float)
        value = gather_field(grid, grid.ex, np.array([3.25]), np.array([4.0]),
                             np.array([4.0]), order=order)
        assert value[0] == pytest.approx(3.25, rel=1e-12)

    def test_gather_fields_for_tile_shapes(self, grid):
        tile = ParticleTile((0, 0, 0), (0, 0, 0), (8, 8, 8))
        tile.append(x=np.array([1.0, 2.0]), y=np.array([1.0, 2.0]),
                    z=np.array([1.0, 2.0]))
        fields = gather_fields_for_tile(grid, tile, order=1)
        assert len(fields) == 6
        assert all(f.shape == (2,) for f in fields)


class TestBlockGatherLocality:
    """A particle's gathered fields are a function of that particle and
    the grid only — not of its tile-mates, the storage order or the
    tile's cell box.  Executor parity, resume parity and the domain-split
    parity all rest on this."""

    @settings(max_examples=40, deadline=None)
    @given(order=st.sampled_from([1, 2, 3]),
           periodic=st.tuples(st.booleans(), st.booleans(), st.booleans()),
           n=st.integers(1, 400), seed=st.integers(0, 2**31),
           cell_sorted=st.booleans())
    def test_bitwise_under_permutation_and_deletion(self, order, periodic, n,
                                                    seed, cell_sorted):
        rng = np.random.default_rng(seed)
        shape = (5, 4, 6)
        grid = random_field_grid(shape, periodic, rng)
        # 2 x 2 x 3 cells hold everybody: cells of several blocks
        x = rng.uniform(1.0, 3.0, n)
        y = rng.uniform(1.0, 3.0, n)
        z = rng.uniform(2.0, 5.0, n)
        if cell_sorted:
            keep = np.lexsort((np.floor(z), np.floor(y), np.floor(x)))
            x, y, z = x[keep], y[keep], z[keep]
        whole = gather_fields_for_tile(
            grid, _tile_of(x, y, z, (0, 0, 0), shape), order)

        perm = rng.permutation(n)
        shuffled = gather_fields_for_tile(
            grid, _tile_of(x[perm], y[perm], z[perm], (0, 0, 0), shape),
            order)
        for a, b in zip(whole, shuffled):
            assert np.array_equal(a[perm], b)

        # delete a random subset of the tile-mates (down to one survivor)
        keep = rng.random(n) < rng.choice([0.02, 0.5, 0.9])
        keep[rng.integers(n)] = True
        thinned = gather_fields_for_tile(
            grid, _tile_of(x[keep], y[keep], z[keep], (0, 0, 0), shape),
            order)
        for a, b in zip(whole, thinned):
            assert np.array_equal(a[keep], b)

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("periodic", [(True, True, True),
                                          (False, True, False)])
    def test_stale_tile_box_gathers_like_a_fresh_tiling(self, order,
                                                        periodic):
        """After a window shift a tile's particles sit one cell outside
        its ``cell_lo``/``cell_hi`` box until the next redistribution;
        they gather what a freshly re-tiled copy gathers, bit for bit."""
        rng = np.random.default_rng(5)
        config = GridConfig(
            n_cell=(8, 8, 8), hi=(8.0, 8.0, 8.0), tile_size=(4, 4, 4),
            field_boundary=tuple("periodic" if p else "pec"
                                 for p in periodic))
        grid = Grid(config)
        for name in FIELD_NAMES:
            getattr(grid, name)[...] = rng.normal(0.0, 1.0, grid.shape)
        n = 300
        # the tile owns cells [0, 4)^3; its particles reach cell 4 on
        # every axis, x also the cell below the domain
        x = rng.uniform(-1.0, 5.0, n)
        y = rng.uniform(0.0, 5.0, n)
        z = rng.uniform(0.0, 5.0, n)
        stale = gather_fields_for_tile(
            grid, _tile_of(x, y, z, (0, 0, 0), (4, 4, 4)), order)

        fresh = ParticleContainer(config, SpeciesConfig())
        fresh.add_particles(grid, x=x, y=y, z=z)
        tiles = fresh.nonempty_tiles()
        assert len(tiles) > 1
        seen = 0
        for tile in tiles:
            for a, b in zip(stale, gather_fields_for_tile(grid, tile,
                                                          order)):
                assert np.array_equal(a[tile.ids], b)
            seen += tile.num_particles
        assert seen == n

    @pytest.mark.parametrize("order", [1, 3])
    def test_far_out_of_domain_falls_back_to_the_stencil_engine(self, order):
        """More than a stencil width outside the domain there is no
        bounded box: the result is ``StencilOperator.gather``'s."""
        rng = np.random.default_rng(9)
        shape = (4, 5, 3)
        grid = random_field_grid(shape, (True, False, True), rng)
        n = 40
        x = rng.uniform(-30.0, 40.0, n)
        y = rng.uniform(-30.0, 40.0, n)
        z = rng.uniform(-30.0, 40.0, n)
        support = shape_support(order)
        assert box_geometry(shape, shape_factors(x, order)[0],
                            shape_factors(y, order)[0],
                            shape_factors(z, order)[0], support) is None
        got = gather_fields_for_tile(
            grid, _tile_of(x, y, z, (0, 0, 0), shape), order)
        operator = StencilOperator.for_grid(grid, x, y, z, order)
        assert operator.box_dims is None
        for name, values in zip(FIELD_NAMES, got):
            assert np.array_equal(values,
                                  operator.gather(getattr(grid, name)))
        assert np.array_equal(
            gather_field(grid, grid.by, x, y, z, order), got[4])

    def test_single_component_agrees_with_its_column_of_the_six(self):
        # one component is a narrower block product (S columns, not
        # 6 S), which BLAS may sum in another order: rounding only
        rng = np.random.default_rng(3)
        grid = random_field_grid((6, 6, 6), (True, True, True), rng)
        x, y, z = (rng.uniform(0.0, 6.0, 90) for _ in range(3))
        six = gather_fields_for_tile(
            grid, _tile_of(x, y, z, (0, 0, 0), (6, 6, 6)), 3)
        for name, values in zip(FIELD_NAMES, six):
            np.testing.assert_allclose(
                gather_field(grid, getattr(grid, name), x, y, z, 3), values,
                rtol=0.0, atol=1e-14)


class TestBorisPusherIntegration:
    def test_push_moves_particles(self):
        config = GridConfig(n_cell=(8, 8, 8), hi=(8.0, 8.0, 8.0))
        grid = Grid(config)
        grid.ez[:] = 1.0e9
        container = ParticleContainer(config, SpeciesConfig())
        container.add_particles(grid, x=np.array([4.0]), y=np.array([4.0]),
                                z=np.array([4.0]))
        pusher = BorisPusher(shape_order=1)
        dt = 1.0e-12
        pusher.push(container, grid, dt)
        tile = container.nonempty_tiles()[0]
        # the electron accelerates against Ez
        assert tile.uz[0] < 0.0
        assert tile.z[0] != 4.0
