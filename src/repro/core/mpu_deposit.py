"""Outer-product formulation of current deposition (paper §4.2.1).

The key idea of Matrix-PIC is that the ``S^3`` nodal contributions of a
particle factor into products of 1-D shape factors, which is exactly the
structure of a vector outer product:

* **CIC (order 1).**  For two particles ``p1, p2`` of the same cell the
  operands are ``A = [w_p1 s_x0, w_p1 s_x1, w_p2 s_x0, w_p2 s_x1]`` (one
  current component at a time) and
  ``B = [s_y0 s_z0, s_y1 s_z0, s_y0 s_z1, s_y1 s_z1`` for ``p1`` followed by
  the same four terms for ``p2]``.  The 4x8 outer product ``A (x) B`` then
  contains ``p1``'s eight nodal contributions in its upper-left 2x4 block
  and ``p2``'s in the lower-right 2x4 block; the cross blocks are ignored.
  Because the valid blocks of every pair occupy the same tile positions,
  the MPU tile register can stay resident and accumulate all pairs of a
  cell before being read out once — 16 useful values per MOPA instruction,
  25 % of the 8x8 tile.

* **QSP (order 3).**  The operands are ``A = [w_p1 s_x0..3, w_p2 s_x0..3]``
  and ``B = [s_y0..3(p1), s_y0..3(p2)]``; the 8x8 outer product holds each
  particle's 4x4 block of ``w s_x s_y`` products (50 % of the tile).  The
  remaining multiplication by the four ``s_z`` factors and the accumulation
  into the 64-entry rhocell is VPU work, so the tile is read back per pair.

Summed over a cell's particles those pair outer products are one matrix
product ``A^T B``, and :func:`tile_rhocells`, the production Stage 2,
computes that product: a tile is a stack of fixed-height block products
handed to BLAS GEMM (this machine's MOPA-accumulate) and no per-particle
``S^3`` block is built.  Its data preparation — the VPU side of the
paper's hybrid pipeline — is particle-inner: the operand panels are
long-axis products of the node-major shape factors
(:func:`repro.pic.blocks.outer_rows`), and the tile-local cell ids come
from the sort state when it holds them.  As the paper's VPU stages
operands just ahead of the MPU, a dense tile is staged, multiplied and
folded piece by piece — cell-aligned pieces of about
``BATCH_PARTICLES`` particles (:func:`repro.pic.particles.piece_bounds`)
— so a piece's staging, panels and products stay in cache instead of
streaming whole-tile arrays from memory.  The modelled
instruction counts (:func:`mpu_work_statistics`) remain those of the
pairwise MOPA stream on the whole tile's processing order.

The pair-by-pair mapping itself, a functional MPU tile register driven
one MOPA per pair as Algorithm 2 describes, is a test oracle
(``tests/mpu_oracles.py``): no run executes it, and the tests hold
:func:`tile_rhocells` to it per cell.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.config import SHAPE_ORDER_CIC
from repro.pic.blocks import (
    BLOCK_ROWS,
    BlockLayout,
    cell_block_slots,
    group_by_cell,
    outer_rows,
)
from repro.pic.deposition.base import Selection, TileDepositionData
from repro.pic.particles import piece_bounds
from repro.pic.shapes import shape_support


def mpu_work_statistics(cell_sequence: np.ndarray, order: int) -> dict:
    """MPU/VPU work of one tile in processing order, *per current component*
    (the hybrid kernel multiplies by three): ``mopa`` instructions,
    ``tile_flushes``, ``runs`` and, for QSP, ``vpu_sz_fma`` — the VPU
    multiply-accumulate by the s_z factors.

    A *run* is a maximal stretch of consecutive particles in one cell:
    one per occupied cell when sorted, approaching one per particle when
    not, which is what makes the no-sort configurations pay for extra
    tile flushes.  Consecutive particles of a run are paired, one MOPA
    per pair (the odd tail alone), so a run of length ``L`` issues
    ``ceil(L / 2)`` of them.
    """
    n = cell_sequence.shape[0]
    starts = np.flatnonzero(cell_sequence[1:] != cell_sequence[:-1]) + 1
    lengths = np.diff(starts, prepend=0, append=n)
    num_runs = starts.shape[0] + 1 if n else 0
    npairs = int(np.sum((lengths + 1) // 2))
    if order == SHAPE_ORDER_CIC:
        # the tile register stays resident per run and is read out once
        return {"mopa": float(npairs), "tile_flushes": float(num_runs),
                "runs": float(num_runs)}
    return {
        "mopa": float(npairs),
        # the tile cannot stay resident across pairs for QSP (the s_z
        # multiply differs per particle), so it is read back per pair
        "tile_flushes": float(npairs + num_runs),
        "runs": float(num_runs),
        "vpu_sz_fma": float(cell_sequence.shape[0] * 64) / 8.0,
    }


def tile_rhocells(stage: Callable[[Selection], TileDepositionData],
                  cells: np.ndarray, order_idx: Optional[np.ndarray],
                  num_cells: int, order: int
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Rhocell blocks of one tile as stacked matrix products (both orders).

    ``cells`` are the tile-local cell ids of the tile's particles in
    storage order and ``order_idx`` the processing order (a permutation
    of them, e.g. the GPMA iteration order; ``None``: storage order).
    ``stage(selection)`` stages the particles a selection of the
    storage order picks, in its order (:func:`~repro.pic.deposition.base.
    prepare_run_data`).  Returns the three ``(num_cells, S^3)`` rhocell
    arrays — one per current component, ``(i, j, k)`` row-major — plus
    :func:`mpu_work_statistics` of the whole processing order.

    The processing order is grouped by cell once, each cell keeping its
    sequence, and cut between cells into pieces of about
    ``BATCH_PARTICLES`` (:func:`~repro.pic.particles.piece_bounds`; a
    tile at or under it is one piece).  Each piece stages its own
    particles — a slice when the grouped order is the storage order, a
    gather otherwise — so its staging, panels and products stay in
    cache, and its cells' rows are written once (:func:`_piece_rhocells`).
    A cell lies in one piece with its whole sequence, so it gets the
    same blocks, folded in the same order, under any cut.
    """
    n = cells.shape[0]
    if n and (cells.min() < 0 or cells.max() >= num_cells):
        raise ValueError(
            f"local cell id out of range for a tile of {num_cells} cells")
    sequence = cells if order_idx is None else cells[order_idx]
    stats = mpu_work_statistics(sequence, order)

    grouped, sequence = group_by_cell(sequence, num_cells, order_idx)
    if grouped is not None and np.array_equal(grouped, np.arange(n)):
        grouped = None
    bounds = piece_bounds(
        n, np.flatnonzero(sequence[1:] != sequence[:-1]) + 1)
    rhocells = np.zeros((3, num_cells, shape_support(order)**3))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        data = stage(slice(lo, hi) if grouped is None else grouped[lo:hi])
        _piece_rhocells(data, sequence[lo:hi], rhocells)
    return rhocells[0], rhocells[1], rhocells[2], stats


def _piece_rhocells(data: TileDepositionData, cells: np.ndarray,
                    rhocells: np.ndarray) -> None:
    """Write the rhocells of the cells one piece holds whole.

    ``data`` stages the piece's particles grouped by cell and ``cells``
    are their cell ids (non-decreasing).  A cell's rhocell is ``A^T B``
    over its particles with ``A = [wqx sx | wqy sx | wqz sx]`` (``3S``
    columns) and ``B = sy (x) sz`` (``S^2`` columns), each built as
    ``3S`` / ``S^2`` products along the particle axis of the node-major
    factors and scattered to the particles' rows
    (:func:`~repro.pic.blocks.outer_rows`: the same values, bit for bit,
    as a per-particle outer product).  Each cell's run is cut into
    blocks of :data:`BLOCK_ROWS` rows (the tail zero-padded: exact
    zeros), every block is one matrix product — ``BLOCK_ROWS / 2`` MOPA
    accumulations into a resident tile, three components at once — and
    a cell's blocks are folded in block order (:func:`_fold_blocks`, one
    running sum per run of equal-depth cells), so a cell's result
    depends on that cell's own particle sequence only.
    """
    n = data.num_particles
    support = data.support
    nodes = support**3
    num_cells = rhocells.shape[1]
    # every particle's row in the cell-grouped, block-aligned row space
    # (the layout the gather shares: repro.pic.blocks)
    layout = cell_block_slots(cells, num_cells)
    slots, num_blocks = layout.slots, layout.num_blocks

    # the two operand panels, built node-major and scattered to their
    # slots: 3S + S^2 doubles per particle for all three components
    rows = num_blocks * BLOCK_ROWS
    width_left = 3 * support
    width_right = support * support
    panels = np.zeros(rows * (width_left + width_right))
    left = panels[:rows * width_left].reshape(rows, width_left)
    right = panels[rows * width_left:].reshape(rows, width_right)
    wq = np.concatenate((data.wqx, data.wqy, data.wqz)).reshape(3, n)
    outer_rows(left, slots, wq, data.wx.T)
    outer_rows(right, slots, data.wy.T, data.wz.T)

    # one (3S, S^2) product per block; row c*S + i, column j*S + k is
    # component c of rhocell entry (i, j, k)
    products = np.matmul(
        left.reshape(num_blocks, BLOCK_ROWS, width_left).transpose(0, 2, 1),
        right.reshape(num_blocks, BLOCK_ROWS, width_right)
    ).reshape(num_blocks, 3 * nodes)

    rhocells[:, layout.cells] = (_fold_blocks(products, layout)
                                 .reshape(-1, 3, nodes).transpose(1, 0, 2))


def _fold_blocks(products: np.ndarray, layout: BlockLayout) -> np.ndarray:
    """Sum each cell's block products, in block order, one row per cell.

    ``products`` has one row per block of ``layout``'s row space.  The
    cells of one depth own one contiguous run of blocks
    (:attr:`~repro.pic.blocks.BlockLayout.depth_runs`), so each run is a
    ``(cells, depth, width)`` view, and its cells' sums are one running
    sum over the depth axis: block ``r`` added to the sum of blocks
    ``0 .. r - 1``, for every cell of the run at once.
    """
    width = products.shape[1]
    folded = np.empty((layout.cells.shape[0], width))
    for depth, lo, hi in layout.depth_runs:
        first = layout.first_block[lo]
        run = products[first:first + (hi - lo) * depth].reshape(
            hi - lo, depth, width)
        total = folded[lo:hi]
        total[...] = run[:, 0]
        for rank in range(1, depth):
            total += run[:, rank]
    return folded
