"""Field gather: interpolation of grid fields to particle positions.

The gather step uses the same assignment functions as deposition (the
adjoint operation), so momentum is conserved between the grid and the
particles for a consistent shape order.  Fields are treated as node-centred
for interpolation, which matches the node-centred current deposition used
throughout the library.

The per-step gather is the transpose of the block-matrix deposit
(:func:`repro.core.mpu_deposit.tile_rhocells`, paper §4.2.1): the
``S^3`` nodal terms of a particle factor into 1-D shape factors, so for
the particles of one cell the interpolation is one matrix product.
:func:`gather_fields` takes a batch of positions — one tile's
(:func:`gather_fields_for_tile`) or a run of tiles' (the pusher's
batches, :mod:`repro.pic.pusher`) — and

1. extracts the wrapped/clamped field box of the batch **once** for all
   six components,
2. gives every particle its stencil *base cell* in box coordinates
   (from the shape factors' base indices, so a particle outside its
   tile's cell box on a shifted window is still gathered exactly) and
   lays the particles into the cell-grouped, zero-padded
   ``BLOCK_ROWS``-row space the deposit uses (:mod:`repro.pic.blocks`),
3. multiplies each block's ``(BLOCK_ROWS, S^2)`` panel of ``sy (x) sz``
   by its cell's ``(S^2, S * 6)`` field operand — one stacked BLAS
   ``matmul`` over all blocks — and contracts the remaining ``sx``
   factor per particle.

No ``(n, S^3)`` id, weight or value array is built.  A row of a block
product depends on that row and the cell's operand only, so a
particle's gathered fields are a function of that particle and the grid
— not of its tile-mates, its batch-mates or the storage order — which
is what keeps executors, resumed runs, domain splits and any grouping
of tiles into batches bitwise equal.  Both kernel tiers share this one
path (:mod:`repro.backend`).

Batches reaching more than a stencil width outside the domain (no
per-step caller does) fall back as a whole to the stencil engine's exact
wrapped-space adjoint, :meth:`repro.pic.stencil.StencilOperator.gather`,
which is also the oracle the block form is tested against.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from repro.backend import Array
from repro.pic.blocks import BLOCK_ROWS, cell_block_slots
from repro.pic.grid import Grid
from repro.pic.particles import ParticleTile
from repro.pic.shapes import shape_factors
from repro.pic.stencil import StencilOperator, box_geometry, box_node_ids


@lru_cache(maxsize=256)
def _cell_operand_offsets(box_dims: Tuple[int, int, int], support: int,
                          components: int) -> Array:
    """Offsets of a cell's ``(S^2, S * components)`` operand in the box.

    Relative to the cell's base node in a ``(components,) + box_dims``
    box: row ``j * S + k``, column ``i * components + c`` addresses
    component ``c`` at node ``(i, j, k)`` of the cell's stencil.
    """
    _, dy, dz = box_dims
    offs = np.arange(support, dtype=np.int64)
    comp = np.arange(components, dtype=np.int64) \
        * (box_dims[0] * dy * dz)
    flat = (offs[:, None, None, None] * dz          # j
            + offs[None, :, None, None]             # k
            + offs[None, None, :, None] * (dy * dz)  # i
            + comp[None, None, None, :])
    flat = flat.reshape(support * support * support * components)
    flat.setflags(write=False)
    return flat


def _gather_components(grid: Grid, fields: Sequence[Array], x: Array,
                       y: Array, z: Array, order: int) -> Tuple[Array, ...]:
    """Interpolate ``fields`` to the positions: the block gather."""
    xi, yi, zi = grid.normalized_position(x, y, z)
    base_x, sx = shape_factors(xi, order)
    base_y, sy = shape_factors(yi, order)
    base_z, sz = shape_factors(zi, order)
    n, support = sx.shape
    shape, periodic = grid.shape, grid.periodic
    geometry = box_geometry(shape, base_x, base_y, base_z, support)
    if geometry is None:
        # more than a stencil width outside the domain: the box would be
        # unbounded, so the engine's exact wrapped-space adjoint serves
        return StencilOperator.from_shape_data(
            shape, periodic, base_x, base_y, base_z, sx, sy, sz,
            grid.kernels).gather_many(fields)
    lo, dims = geometry
    components = len(fields)

    # the wrapped/clamped field box, once for all components
    node_ids = box_node_ids(lo, dims, shape, periodic)
    box = np.concatenate([field.reshape(-1)[node_ids] for field in fields])

    # group by stencil base cell (its flat box id) into the block rows
    cells = ((base_x - lo[0]) * dims[1] + (base_y - lo[1])) * dims[2] \
        + (base_z - lo[2])
    num_cells = dims[0] * dims[1] * dims[2]
    slots, cell_blocks, _ = cell_block_slots(cells, num_cells)
    occupied = np.nonzero(cell_blocks)[0]
    depth = cell_blocks[occupied]
    num_blocks = int(depth.sum())

    plane = support * support
    width = support * components
    right = np.zeros((num_blocks * BLOCK_ROWS, plane))
    right[slots] = np.einsum("pj,pk->pjk", sy, sz).reshape(n, plane)
    # a cell's (S^2, S * components) operand, repeated for its blocks
    operand = np.repeat(
        box[occupied[:, None]
            + _cell_operand_offsets(dims, support, components)],
        depth, axis=0)
    rows = np.matmul(right.reshape(num_blocks, BLOCK_ROWS, plane),
                     operand.reshape(num_blocks, plane, width))
    rows = rows.reshape(num_blocks * BLOCK_ROWS, support, components)
    return tuple(np.einsum("pi,pic->cp", sx, rows[slots]))


def gather_field(grid: Grid, field: Array, x: Array, y: Array,
                 z: Array, order: int) -> Array:
    """Interpolate one field component to the given particle positions."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return np.zeros(x.shape)
    return _gather_components(grid, (field,), x, y, z, order)[0]


def gather_fields(grid: Grid, x: Array, y: Array, z: Array, order: int
                  ) -> Tuple[Array, Array, Array, Array, Array, Array]:
    """Interpolate all six field components to a batch of positions.

    The batch may hold the particles of any number of tiles: a
    particle's result depends on that particle and the grid only, so
    gathering a run of tiles at once equals gathering them one by one,
    bit for bit (the pusher batches small tiles this way).
    """
    if x.shape[0] == 0:
        empty = np.empty(0)
        return (empty,) * 6
    return _gather_components(
        grid, (grid.ex, grid.ey, grid.ez, grid.bx, grid.by, grid.bz),
        x, y, z, order)


def gather_fields_for_tile(grid: Grid, tile: ParticleTile, order: int
                           ) -> Tuple[Array, Array, Array,
                                      Array, Array, Array]:
    """Interpolate all six field components to a tile's particles."""
    return gather_fields(grid, tile.x, tile.y, tile.z, order)
