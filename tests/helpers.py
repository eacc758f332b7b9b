"""Shared test helpers.

These live in a plain module (not ``conftest.py``) so test modules can
import them directly: ``conftest`` is special to pytest and importing it
with a relative import fails because the ``tests`` directory is not a
package.  Pytest's default ``prepend`` import mode puts this directory on
``sys.path``, so ``from helpers import make_plasma`` works everywhere in
the suite.
"""

from __future__ import annotations

import numpy as np

from repro.config import GridConfig, SpeciesConfig
from repro.core.framework import SORT_NONE, MatrixPICDeposition
from repro.pic.grid import Grid
from repro.pic.particles import ParticleContainer
from repro.pic.plasma import load_uniform_plasma


def make_plasma(grid_config: GridConfig, ppc=(2, 2, 2), seed: int = 7,
                momentum_scale: float = 3.0e6):
    """Grid + container filled with a uniform plasma carrying random momenta."""
    grid = Grid(grid_config)
    species = SpeciesConfig(ppc=ppc)
    container = ParticleContainer(grid_config, species)
    rng = np.random.default_rng(seed)
    load_uniform_plasma(grid, container, species, rng)
    for tile in container.iter_tiles():
        n = tile.num_particles
        if n:
            tile.ux = rng.normal(0.0, momentum_scale, n)
            tile.uy = rng.normal(0.0, momentum_scale, n)
            tile.uz = rng.normal(0.0, momentum_scale, n)
    return grid, container


def cells_outside_their_tile(grid, container):
    """How many particles sit in a cell outside their own tile's box."""
    outside = 0
    for tile in container.nonempty_tiles():
        cells = grid.cell_index(tile.x, tile.y, tile.z)
        inside = np.ones(tile.num_particles, dtype=bool)
        for axis, index in enumerate(cells):
            inside &= ((index >= tile.cell_lo[axis])
                       & (index < tile.cell_hi[axis]))
        outside += int(np.count_nonzero(~inside))
    return outside


#: the six gathered field components, in ``gather_fields_for_tile`` order
FIELD_NAMES = ("ex", "ey", "ez", "bx", "by", "bz")


def random_field_grid(shape, periodic, rng):
    """A grid of unit cells (a position is its normalised coordinate)
    with random E and B; open axes are ``pec``."""
    grid = Grid(GridConfig(
        n_cell=shape, hi=tuple(float(s) for s in shape),
        field_boundary=tuple("periodic" if p else "pec" for p in periodic)))
    for name in FIELD_NAMES:
        getattr(grid, name)[...] = rng.normal(0.0, 1.0, shape)
    return grid


def deposit_unsorted(kernel, grid, container, order, executor=None):
    """One instrumented kernel over the container in storage order — the
    ``Baseline`` configuration's tile loop with any kernel plugged in;
    returns the merged :class:`~repro.hardware.counters.KernelCounters`."""
    return MatrixPICDeposition(kernel, SORT_NONE).run_step(
        grid, container, order, 0, executor=executor)


def log_events(handle, name):
    """Fields of every ``log_event(name, ...)`` a tracing telemetry
    ``handle`` recorded (``repro.obs`` stores them as ``log.<name>``)."""
    return [event["args"] for event in handle.events
            if event["name"] == f"log.{name}"]
