"""The cell-grouped block layout shared by the deposit and the gather.

Summed over a cell's particles, the ``S^3`` nodal terms of the
tensor-product stencil are one matrix product (paper §4.2.1), in either
direction: the deposit (:func:`repro.core.mpu_deposit.tile_rhocells`)
contracts the particles away, the gather
(:func:`repro.pic.gather.gather_fields`) is its transpose and
contracts the cell's nodes away.  Both lay a batch's particles into the
same row space — grouped by cell, each cell's run cut into blocks of
:data:`BLOCK_ROWS` rows, the tail block zero-padded — and hand the stack
of blocks to BLAS ``matmul``.  That layout is stated here, once.
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


def cell_block_slots(cells: np.ndarray, num_cells: int,
                     order_idx: Optional[np.ndarray] = None
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row of every particle in the zero-padded, block-aligned row space.

    ``cells`` is the cell id (in ``[0, num_cells)``) of each particle in
    processing order and ``order_idx`` the storage index of each
    processing position (``None``: processing order is storage order).
    The processing order is grouped by cell keeping each cell's sequence
    (skipped when it is already non-decreasing — a sorted tile — else
    one :func:`stable_order_by_bin` pass); cell ``c`` then owns the
    ``cell_blocks[c]`` consecutive blocks from ``block_start[c]`` and
    its particles fill their rows in sequence.

    Returns ``(slots, cell_blocks, block_start)`` with ``slots`` indexed
    by *storage* index.
    """
    n = cells.shape[0]
    if n > 1 and np.any(cells[1:] < cells[:-1]):
        group = stable_order_by_bin(cells, num_cells)
        order_idx = group if order_idx is None else order_idx[group]
        cells = cells[group]

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
