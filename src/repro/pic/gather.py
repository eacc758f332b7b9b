"""Field gather: interpolation of grid fields to particle positions.

The gather step uses the same assignment functions as deposition (the
adjoint operation), so momentum is conserved between the grid and the
particles for a consistent shape order.  Fields are treated as node-centred
for interpolation, which matches the node-centred current deposition used
throughout the library.

The interpolation runs through the flat-index stencil engine
(:mod:`repro.pic.stencil`): wrapped node indices and tensor-product shape
factors are computed **once per particle batch** and shared by every field
component — the six-component gather of :func:`gather_fields_for_tile`
builds one stencil instead of recomputing indices and weights per
component (6x at the old code's cost), and reads each field through a
single flat fancy-index pass instead of a ``support**3`` loop nest.

Both entry points build the stencil on ``grid`` — so the id/weight
build runs on the grid's kernel tier (:mod:`repro.backend`) — while the
multiply-reduce stays the shared ``einsum`` on every tier: a compiled
sequential reduction could not match its pairwise order bitwise.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.backend import Array
from repro.pic.grid import Grid
from repro.pic.particles import ParticleTile
from repro.pic.stencil import StencilOperator


def gather_field(grid: Grid, field: Array, x: Array, y: Array,
                 z: Array, order: int) -> Array:
    """Interpolate one field component to the given particle positions."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return np.zeros(x.shape)
    return StencilOperator.for_grid(grid, x, y, z, order).gather(field)


def gather_fields_for_tile(grid: Grid, tile: ParticleTile, order: int
                           ) -> Tuple[Array, Array, Array,
                                      Array, Array, Array]:
    """Interpolate all six field components to a tile's particles.

    Shape factors and wrapped node indices are computed once and shared by
    ex/ey/ez/bx/by/bz — the single-pass adjoint of the deposition scatter.
    """
    if tile.num_particles == 0:
        empty = np.empty(0)
        return (empty,) * 6
    return StencilOperator.for_grid(
        grid, tile.x, tile.y, tile.z, order
    ).gather_many((grid.ex, grid.ey, grid.ez, grid.bx, grid.by, grid.bz))
