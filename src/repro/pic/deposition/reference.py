"""Uninstrumented reference deposition kernels.

These kernels are the numerical ground truth: a straightforward vectorised
scatter-add over all particles of a container.  They carry no hardware
instrumentation and are therefore also the fast path used by the plain
simulation loop and by the physics-level tests (energy conservation, charge
conservation, LWFA wakefield structure).

Both densities deposit once per *run of tiles*, the runs the pusher uses
(:func:`repro.pic.particles.tile_runs`: a shard's consecutive tiles,
grouped until a run holds ``BATCH_PARTICLES`` particles): one staging pass
over the run's slice of the particle store and one scatter into the run's
bounding box.  A node's sum therefore follows the run partition.  Where
one tile's particles alone reach a node, and wherever a run is a single
tile, the result is bitwise that of depositing tile by tile; where tiles
of one run meet, the box adds their particles in one pass and the sum
differs from the per-tile one in the last ulps (so the batch size moves
J at rounding level where runs meet).

Both entry points accept an optional tile executor (:mod:`repro.exec`)
and shard through :func:`~repro.pic.deposition.base.scratch_reduce`.  The
runs are cut inside each shard, so the result is a function of each
shard's run partition: bitwise identical whichever backend (serial,
threads) ran the shards at a fixed shard count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.pic.deposition.base import (
    prepare_run_data,
    scatter_tile_currents,
    scratch_reduce,
)
from repro.pic.grid import Grid
from repro.pic.particles import ParticleContainer, ParticleTile, stored, tile_runs
from repro.pic.stencil import StencilOperator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec import TileExecutor


def _current_tiles(grid: Grid, tiles: Sequence[ParticleTile], charge: float,
                   order: int) -> None:
    """Add the current density of ``tiles`` to the grid's J arrays."""
    for run in tile_runs(tiles):
        scatter_tile_currents(grid, prepare_run_data(grid, run, charge, order))


def _rho_tiles(grid: Grid, tiles: Sequence[ParticleTile], charge: float,
               order: int) -> None:
    """Add the charge density of ``tiles`` to ``grid.rho``.

    One flattened stencil per run, one ``np.bincount`` accumulation pass.
    """
    cell_volume = float(np.prod(grid.cell_size))
    for run in tile_runs(tiles):
        x, y, z, _, _, _, w = stored(run)
        stencil = StencilOperator.for_grid(grid, x, y, z, order)
        stencil.scatter(charge * w / cell_volume, grid.rho)


def deposit_reference(grid: Grid, container: ParticleContainer, order: int,
                      executor: "TileExecutor | None" = None) -> None:
    """Add the container's current density to the grid (numerical reference)."""
    scratch_reduce(executor, grid, container.nonempty_tiles(),
                   _current_tiles, container.charge, order)


def deposit_rho_reference(grid: Grid, container: ParticleContainer, order: int,
                          executor: "TileExecutor | None" = None) -> None:
    """Add the container's charge density to ``grid.rho``."""
    scratch_reduce(executor, grid, container.nonempty_tiles(),
                   _rho_tiles, container.charge, order, arrays=("rho",))
