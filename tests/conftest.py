"""Shared fixtures for the test suite."""

from __future__ import annotations

import importlib
import sys

import pytest

from repro.backend import kernels_numba
from repro.config import GridConfig
from repro.pic.grid import Grid

from helpers import make_plasma  # noqa: F401  (re-exported fixture helper)


@pytest.fixture
def numba_missing():
    """Re-import ``kernels_numba`` with numba unimportable (so the
    ``fused`` tier cannot run, also on the CI jit leg).  Afterwards the
    module gets its own objects back, not a third import: the tier table
    holds the functions it was built with, compiled ones on the jit leg.
    """
    real = dict(vars(kernels_numba))
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "numba", None)  # forces ImportError
        importlib.reload(kernels_numba)
        yield
    vars(kernels_numba).clear()
    vars(kernels_numba).update(real)


@pytest.fixture
def small_grid_config() -> GridConfig:
    """An 8x8x8 periodic grid with a single 8x8x8 tile."""
    return GridConfig(n_cell=(8, 8, 8), hi=(8.0e-6, 8.0e-6, 8.0e-6),
                      tile_size=(8, 8, 8))


@pytest.fixture
def tiled_grid_config() -> GridConfig:
    """An 8x8x8 periodic grid split into eight 4x4x4 tiles."""
    return GridConfig(n_cell=(8, 8, 8), hi=(8.0e-6, 8.0e-6, 8.0e-6),
                      tile_size=(4, 4, 4))


@pytest.fixture
def small_grid(small_grid_config) -> Grid:
    return Grid(small_grid_config)


@pytest.fixture
def plasma_small(small_grid_config):
    """A single-tile plasma used by the kernel equivalence tests."""
    return make_plasma(small_grid_config)


@pytest.fixture
def plasma_tiled(tiled_grid_config):
    """A multi-tile plasma used by the container/framework tests."""
    return make_plasma(tiled_grid_config)
