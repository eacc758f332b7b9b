"""Uninstrumented reference deposition kernels.

These kernels are the numerical ground truth: a straightforward vectorised
scatter-add over all particles of a container.  They carry no hardware
instrumentation and are therefore also the fast path used by the plain
simulation loop and by the physics-level tests (energy conservation, charge
conservation, LWFA wakefield structure).

Both entry points accept an optional tile executor (:mod:`repro.exec`)
and shard through :func:`~repro.pic.deposition.base.scratch_reduce`: the
result is bitwise identical whichever backend (serial, threads) ran the
shards — and, for a single shard, identical to the plain loop over the
tiles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.pic.deposition.base import (
    prepare_tile_data,
    scatter_tile_currents,
    scratch_reduce,
)
from repro.pic.grid import Grid
from repro.pic.particles import ParticleContainer, ParticleTile
from repro.pic.stencil import StencilOperator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec import TileExecutor


def _current_tiles(grid: Grid, tiles: Sequence[ParticleTile], charge: float,
                   order: int) -> None:
    """Add the current density of ``tiles`` to the grid's J arrays."""
    for tile in tiles:
        scatter_tile_currents(grid,
                              prepare_tile_data(grid, tile, charge, order))


def _rho_tiles(grid: Grid, tiles: Sequence[ParticleTile], charge: float,
               order: int) -> None:
    """Add the charge density of ``tiles`` to ``grid.rho``.

    One flattened stencil per tile, one ``np.bincount`` accumulation pass.
    """
    cell_volume = float(np.prod(grid.cell_size))
    for tile in tiles:
        stencil = StencilOperator.for_grid(grid, tile.x, tile.y, tile.z, order)
        stencil.scatter(charge * tile.w / cell_volume, grid.rho)


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
