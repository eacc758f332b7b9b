"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.config import GridConfig
from repro.pic.grid import Grid

from helpers import make_plasma  # noqa: F401  (re-exported fixture helper)


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
