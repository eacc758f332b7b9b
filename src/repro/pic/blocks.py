"""The cell-grouped block layout shared by the deposit and the gather.

Summed over a cell's particles, the ``S^3`` nodal terms of the
tensor-product stencil are one matrix product (paper §4.2.1), in either
direction: the deposit (:func:`repro.core.mpu_deposit.tile_rhocells`)
contracts the particles away, the gather
(:func:`repro.pic.gather.gather_fields`) is its transpose and
contracts the cell's nodes away.  Both lay a batch's particles into the
same row space — grouped by cell, each cell's run cut into blocks of
:data:`BLOCK_ROWS` rows, the tail block zero-padded — and hand the stack
of blocks to BLAS ``matmul``.  That layout is stated here, once, with the
one way both directions fill it: :func:`outer_rows` multiplies the
node-major shape factors (:mod:`repro.pic.shapes`) along the particle
axis and scatters each particle's outer product to its row.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

#: Rows (particles) per block of the stacked product.  It fixes how a
#: cell's particles are grouped before they are summed, so it is part of
#: the numerics — a constant, not an option.
BLOCK_ROWS = 16


def stable_order_by_bin(bins: np.ndarray, num_bins: int) -> np.ndarray:
    """Stable permutation that sorts int64 ``bins`` (all in ``[0, num_bins)``).

    A stable sort's permutation is unique, so this is exactly the order a
    counting sort's placement pass produces.  NumPy's stable ``argsort`` is
    an O(n) radix sort for 16-bit keys and a merge sort otherwise, so the
    keys are narrowed whenever the bin count allows it (every tile in the
    paper's configurations has far fewer than 65 536 cells).
    """
    keys = bins.astype(np.uint16) if num_bins <= 1 << 16 else bins
    return np.argsort(keys, kind="stable")


def group_by_cell(cells: np.ndarray, num_cells: int,
                  order_idx: Optional[np.ndarray] = None
                  ) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """A processing order grouped by cell, each cell keeping its sequence.

    ``cells`` is the cell id (in ``[0, num_cells)``) of each particle in
    processing order and ``order_idx`` the storage index of each
    processing position (``None``: processing order is storage order).
    Returns the grouped ``(order_idx, cells)``: as given when the cells
    are already non-decreasing (a sorted tile), else after one
    :func:`stable_order_by_bin` pass.
    """
    if cells.shape[0] > 1 and np.any(cells[1:] < cells[:-1]):
        group = stable_order_by_bin(cells, num_cells)
        order_idx = group if order_idx is None else order_idx[group]
        cells = cells[group]
    return order_idx, cells


def cell_block_slots(cells: np.ndarray, num_cells: int,
                     order_idx: Optional[np.ndarray] = None
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row of every particle in the zero-padded, block-aligned row space.

    ``cells`` and ``order_idx`` are a processing order as
    :func:`group_by_cell` takes it, which groups it by cell; cell ``c``
    then owns the ``cell_blocks[c]`` consecutive blocks from
    ``block_start[c]`` and its particles fill their rows in sequence.

    Returns ``(slots, cell_blocks, block_start)`` with ``slots`` indexed
    by *storage* index.
    """
    n = cells.shape[0]
    order_idx, cells = group_by_cell(cells, num_cells, order_idx)
    counts = np.bincount(cells, minlength=num_cells)
    cell_blocks = (counts + (BLOCK_ROWS - 1)) // BLOCK_ROWS
    block_end = np.cumsum(cell_blocks)
    block_start = block_end - cell_blocks
    run_start = np.cumsum(counts) - counts
    grouped = (np.arange(n, dtype=np.int64)
               + (block_start * BLOCK_ROWS - run_start)[cells])
    if order_idx is None:
        return grouped, cell_blocks, block_start
    slots = np.empty(n, dtype=np.int64)
    slots[order_idx] = grouped
    return slots, cell_blocks, block_start


def outer_rows(out: np.ndarray, slots: np.ndarray, a: np.ndarray,
               b: np.ndarray) -> None:
    """Write every particle's outer product ``a ⊗ b`` to its row of ``out``.

    ``a`` (``(U, n)``) and ``b`` (``(V, n)``) are node-major: row ``u``
    holds factor ``u`` of every particle, as ``weights.T`` of
    :func:`repro.pic.shapes.shape_factors` does.  Row ``slots[p]`` of
    ``out`` (``(rows, U * V)``) receives ``a[u, p] * b[v, p]`` in column
    ``u * V + v``; rows no slot names are left as they are.  The ``U * V``
    products run along the long particle axis — one ufunc pass, no
    ``S``-wide inner loop — and the finished panel is scattered once.
    """
    u, n = a.shape
    v = b.shape[0]
    products = np.empty((u, v, n))
    np.multiply(a[:, None, :], b[None, :, :], out=products)
    out[slots] = products.reshape(u * v, n).T
