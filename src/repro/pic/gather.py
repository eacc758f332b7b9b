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

1. extracts the wrapped/clamped field box of the batch
   (:func:`repro.pic.stencil.box_geometry`, bounded however far outside
   the domain the batch lies) **once** for all six components,
2. gives every particle its stencil *base cell* in box coordinates
   (from the shape factors' base indices, so a particle outside its
   tile's cell box on a shifted window is still gathered exactly) and
   lays the particles into the cell-grouped, zero-padded
   ``BLOCK_ROWS``-row space the deposit uses (:mod:`repro.pic.blocks`),
   where cells of equal depth (block count) sit side by side,
3. builds each occupied cell's ``(S^2, S * 6)`` field operand once and
   multiplies it, transposed, by the transpose of the cell's
   ``(depth * BLOCK_ROWS, S^2)`` panel of ``sy (x) sz`` (built by
   :func:`repro.pic.blocks.outer_rows`, the deposit's panel builder) —
   one stacked BLAS ``matmul`` per depth, every cell's rows against its
   own operand, as the paper's MPU keeps a cell's tile resident while
   the cell's particles stream through — into a node-major
   ``(S * 6, rows)`` result, takes every particle's column back once,
   and contracts the remaining ``sx`` factor as ``S`` multiply-adds
   along contiguous rows of ``sx.T`` and of that result.

No ``(n, S^3)`` id, weight or value array is built, and no copy of a
cell's operand per block.  An entry of a block product depends on its
row of the panel and the cell's operand only, whatever the depth of the
stack, so a particle's gathered fields are a function of that particle
and the grid — not of its tile-mates, its batch-mates or the storage
order — which is what keeps executors, resumed runs, domain splits and
any grouping of tiles into batches bitwise equal.

**Rounding.**  The gather always multiplies all six components: BLAS
picks its kernel, and with it the summation order over the ``S^2``
inner axis, by the product's shape, so a narrower one-component
product need not round as its rows of the six-component one do (under
OpenBLAS's SkylakeX kernel the row-major ``(rows, 16) @ (16, 4)`` QSP
product does not).  The ``sx`` contraction adds the ``S`` node terms
in node order starting from zero, which is the order the row-major
``einsum`` it replaced summed six components in, so the gathered fields
are those of the row-major formulation bit for bit
(``tests/test_operand_panels.py``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.pic.blocks import BLOCK_ROWS, cell_block_slots, outer_rows
from repro.pic.grid import Grid
from repro.pic.particles import ParticleTile
from repro.pic.shapes import shape_factors
from repro.pic.stencil import Array, box_geometry, box_node_ids


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


def _gather_components(grid: Grid, x: Array, y: Array, z: Array,
                       order: int) -> Tuple[Array, ...]:
    """Interpolate the six field components to the positions: the block
    gather."""
    fields = (grid.ex, grid.ey, grid.ez, grid.bx, grid.by, grid.bz)
    xi, yi, zi = grid.normalized_position(x, y, z)
    base_x, sx = shape_factors(xi, order)
    base_y, sy = shape_factors(yi, order)
    base_z, sz = shape_factors(zi, order)
    support = sx.shape[1]
    shape, periodic = grid.shape, grid.periodic
    (base_x, base_y, base_z), lo, dims = box_geometry(
        shape, periodic, base_x, base_y, base_z, support)
    components = len(fields)

    # the wrapped/clamped field box, once for all components
    node_ids = box_node_ids(lo, dims, shape, periodic)
    box = np.concatenate([field.reshape(-1)[node_ids] for field in fields])

    # group by stencil base cell (its flat box id) into the block rows
    cells = ((base_x - lo[0]) * dims[1] + (base_y - lo[1])) * dims[2] \
        + (base_z - lo[2])
    num_cells = dims[0] * dims[1] * dims[2]
    layout = cell_block_slots(cells, num_cells)
    num_rows = layout.num_blocks * BLOCK_ROWS

    plane = support * support
    width = support * components
    right = np.zeros((num_rows, plane))
    outer_rows(right, layout.slots, sy.T, sz.T)
    # each occupied cell's (S^2, S * components) operand, once
    operand = box[layout.cells[:, None]
                  + _cell_operand_offsets(dims, support, components)
                  ].reshape(-1, plane, width)
    # a run of equal-depth cells is one stack of (S * components, S^2) by
    # (S^2, depth * BLOCK_ROWS) products, straight into its columns of the
    # node-major result (the runs follow each other in row order)
    products = np.empty((width, num_rows))
    first = 0
    for depth, lo, hi in layout.depth_runs:
        count, height = hi - lo, depth * BLOCK_ROWS
        last = first + count * height
        np.matmul(operand[lo:hi].transpose(0, 2, 1),
                  right[first:last].reshape(count, height, plane
                                            ).transpose(0, 2, 1),
                  out=products[:, first:last].reshape(width, count, height
                                                      ).transpose(1, 0, 2))
        first = last
    # row i * components + c of picked is node i of component c, per
    # particle; the sx contraction is S multiply-adds along those rows,
    # in node order from zero
    picked = products.take(layout.slots, axis=1).reshape(support,
                                                         components, -1)
    picked *= sx.T[:, None, :]
    gathered = np.zeros(picked.shape[1:])
    for term in picked:
        gathered += term
    return tuple(gathered)


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
    return _gather_components(grid, x, y, z, order)


def gather_fields_for_tile(grid: Grid, tile: ParticleTile, order: int
                           ) -> Tuple[Array, Array, Array,
                                      Array, Array, Array]:
    """Interpolate all six field components to a tile's particles."""
    return gather_fields(grid, tile.x, tile.y, tile.z, order)
