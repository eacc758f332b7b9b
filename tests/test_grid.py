"""Tests for the grid and field storage."""

import numpy as np
import pytest

from repro.config import GridConfig
from repro.pic.grid import Grid, apply_grid_geometry, grid_geometry


@pytest.fixture
def grid():
    return Grid(GridConfig(n_cell=(4, 6, 8), hi=(4.0, 6.0, 8.0)))


def test_shapes_and_zero_init(grid):
    assert grid.shape == (4, 6, 8)
    for arr in grid.field_arrays().values():
        assert arr.shape == (4, 6, 8)
        assert np.all(arr == 0.0)


def test_cell_size(grid):
    np.testing.assert_allclose(grid.cell_size, [1.0, 1.0, 1.0])


def test_num_cells(grid):
    assert grid.num_cells == 4 * 6 * 8


def test_normalized_position(grid):
    xi, yi, zi = grid.normalized_position(np.array([1.5]), np.array([2.25]),
                                          np.array([7.75]))
    assert xi[0] == pytest.approx(1.5)
    assert yi[0] == pytest.approx(2.25)
    assert zi[0] == pytest.approx(7.75)


def test_cell_index_wraps_periodic(grid):
    ix, iy, iz = grid.cell_index(np.array([-0.5]), np.array([6.5]), np.array([3.2]))
    assert ix[0] == 3      # wrapped from -1
    assert iy[0] == 0      # wrapped from 6
    assert iz[0] == 3


def test_wrap_node_index_clamps_non_periodic():
    config = GridConfig(n_cell=(4, 4, 4), hi=(4.0, 4.0, 4.0),
                        field_boundary=("periodic", "periodic", "absorbing"))
    grid = Grid(config)
    assert grid.wrap_node_index(np.array([-1]), axis=2)[0] == 0
    assert grid.wrap_node_index(np.array([9]), axis=2)[0] == 3
    assert grid.wrap_node_index(np.array([-1]), axis=0)[0] == 3


def test_linear_cell_id_roundtrip(grid):
    ix = np.array([0, 3, 2])
    iy = np.array([5, 0, 3])
    iz = np.array([7, 1, 0])
    cid = grid.linear_cell_id(ix, iy, iz)
    # row-major: numpy's unravel of the grid shape inverts it
    rx, ry, rz = np.unravel_index(cid, grid.shape)
    np.testing.assert_array_equal(rx, ix)
    np.testing.assert_array_equal(ry, iy)
    np.testing.assert_array_equal(rz, iz)


def test_linear_cell_id_unique(grid):
    ix, iy, iz = np.meshgrid(np.arange(4), np.arange(6), np.arange(8),
                             indexing="ij")
    ids = grid.linear_cell_id(ix.ravel(), iy.ravel(), iz.ravel())
    assert np.unique(ids).size == grid.num_cells


def test_zero_currents(grid):
    grid.jx[:] = 1.0
    grid.jy[:] = 2.0
    grid.zero_currents()
    assert np.all(grid.jx == 0.0)
    assert np.all(grid.jy == 0.0)


def test_field_energy_positive(grid):
    grid.ex[:] = 1.0e3
    grid.bz[:] = 1.0e-4
    assert grid.field_energy() > 0.0


def test_field_energy_zero_for_empty(grid):
    assert grid.field_energy() == 0.0


def test_grid_geometry_is_a_snapshot_of_the_live_corners(grid):
    grid.lo += 2.0
    grid.hi += 2.0
    lo, hi = grid_geometry(grid)
    np.testing.assert_array_equal(lo, [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(hi, [6.0, 8.0, 10.0])
    # a copy: the window advancing again leaves the snapshot as it was
    grid.lo += 1.0
    np.testing.assert_array_equal(lo, [2.0, 2.0, 2.0])


def test_apply_grid_geometry_moves_a_config_built_grid(grid):
    """A scratch grid built from the config takes the live corners, and
    normalises positions against them as the original does."""
    grid.lo += 2.0
    grid.hi += 2.0
    scratch = Grid(grid.config)
    assert apply_grid_geometry(scratch, grid_geometry(grid)) is scratch
    np.testing.assert_array_equal(scratch.lo, grid.lo)
    np.testing.assert_array_equal(scratch.hi, grid.hi)
    x, y, z = np.array([2.5]), np.array([3.0]), np.array([9.75])
    for got, expected in zip(scratch.normalized_position(x, y, z),
                             grid.normalized_position(x, y, z)):
        np.testing.assert_array_equal(got, expected)
