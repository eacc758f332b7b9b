"""The cell-grouped block layout shared by the deposit and the gather.

Summed over a cell's particles, the ``S^3`` nodal terms of the
tensor-product stencil are one matrix product (paper §4.2.1), in either
direction: the deposit (:func:`repro.core.mpu_deposit.tile_rhocells`)
contracts the particles away, the gather
(:func:`repro.pic.gather.gather_fields`) is its transpose and
contracts the cell's nodes away.  Both lay a batch's particles into the
same row space — grouped by cell, each cell's run cut into blocks of
:data:`BLOCK_ROWS` rows, the tail block zero-padded, and the cells of
equal depth (block count) side by side — and hand it to BLAS ``matmul``.
Both read the cells of one depth as one contiguous run
(:attr:`BlockLayout.depth_runs`): the deposit multiplies block by block
and folds each run's blocks as one ``(cells, depth, width)`` view, a
running sum over the depth axis; the gather multiplies each run as one
stack, every cell's rows against that cell's operand, which it builds
once however deep the cell is.  That layout is
stated here, once, with the one way both directions fill it:
:func:`outer_rows` multiplies the node-major shape factors
(:mod:`repro.pic.shapes`) along the particle axis and scatters each
particle's outer product to its row.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

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


class BlockLayout(NamedTuple):
    """The row space of one batch (:func:`cell_block_slots`).

    ``cells`` are the occupied cells in row order, ``depth`` their block
    counts (non-decreasing) and ``first_block`` the first of each cell's
    ``depth`` consecutive blocks; ``slots`` is every particle's row, by
    storage index.  ``depth_runs`` holds one ``(depth, lo, hi)`` per
    depth present, in row order: ``cells[lo:hi]`` are the cells of that
    depth, and own the blocks from ``first_block[lo]`` on.
    """

    slots: np.ndarray
    cells: np.ndarray
    depth: np.ndarray
    first_block: np.ndarray
    depth_runs: Tuple[Tuple[int, int, int], ...]

    @property
    def num_blocks(self) -> int:
        return int(self.depth.sum())


def cell_block_slots(cells: np.ndarray, num_cells: int,
                     order_idx: Optional[np.ndarray] = None) -> BlockLayout:
    """Row of every particle in the zero-padded, block-aligned row space.

    ``cells`` and ``order_idx`` are a processing order as
    :func:`group_by_cell` takes it, which groups it by cell; every
    occupied cell then owns consecutive blocks, its particles filling
    their rows in sequence.  The cells are laid out by ascending depth
    and, within a depth, by cell id, so the cells of one depth own one
    contiguous run of blocks.  When no cell is deeper than one block,
    that is plain cell order and costs no ordering pass.
    """
    n = cells.shape[0]
    order_idx, cells = group_by_cell(cells, num_cells, order_idx)
    counts = np.bincount(cells, minlength=num_cells)
    occupied = np.flatnonzero(counts)
    held = counts[occupied]
    run_start = np.cumsum(held) - held
    depth = (held + (BLOCK_ROWS - 1)) // BLOCK_ROWS
    per_depth = np.bincount(depth)
    if per_depth.shape[0] > 2:  # some cell is deeper than one block
        by_depth = stable_order_by_bin(depth, per_depth.shape[0])
        occupied, run_start = occupied[by_depth], run_start[by_depth]
        depth = depth[by_depth]
    first_block = np.cumsum(depth) - depth
    ends = np.cumsum(per_depth).tolist()
    runs = tuple((d, ends[d - 1], ends[d]) for d in range(1, len(ends))
                 if ends[d] > ends[d - 1])
    # only the entries of occupied cells are ever read
    shift = np.empty(num_cells, dtype=np.int64)
    shift[occupied] = first_block * BLOCK_ROWS - run_start
    grouped = np.arange(n, dtype=np.int64) + shift[cells]
    if order_idx is not None:
        slots = np.empty(n, dtype=np.int64)
        slots[order_idx] = grouped
        grouped = slots
    return BlockLayout(grouped, occupied, depth, first_block, runs)


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
