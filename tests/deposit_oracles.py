"""Deposition code paths replaced in ``src/``, kept as test oracles.

The per-particle MatrixPIC Stage 2 is what ``repro.core.mpu_deposit``
shipped before Stage 2 became a stacked block-matrix product: per current
component it builds every particle's full ``S^3`` nodal block through
pair outer products (``tile_contributions_cic`` /
``tile_contributions_qsp`` and their ``pair_within_runs``, verbatim) and
hands the ``(n, S^3)`` arrays to ``scatter_rhocell_blocks``' ``bincount``.
It is slow, allocates ~2.8 KiB per particle and is obviously right; it
exists only so ``tests/test_mpu_deposit.py`` can hold the production
``tile_rhocells`` to its values (to summation order) and to its work
statistics (exactly — they feed ``KernelCounters``).

The per-tile reference deposit (``oracle_deposit_reference`` /
``oracle_deposit_rho_reference``) is what ``repro.pic.deposition.
reference`` shipped before it deposited once per run of tiles: one
staging pass and one box scatter per tile.  ``tests/
test_deposit_batches.py`` holds the run deposit to it — bitwise wherever
one tile's particles alone reach a node.

The einsum operand panels (``einsum_deposit_panels``,
``oracle_einsum_tile_rhocells``, ``oracle_einsum_gather_fields``) are the
block deposit and the block gather as they built their panels before the
node-major staging: one ``np.einsum`` per panel over an ``S``-wide
innermost axis, from row-major ``(n, S)`` shape factors.
``tests/test_operand_panels.py`` holds the node-major panels, and with
them ``tile_rhocells`` and ``gather_fields``, to these bit for bit.  The
einsum gather also keeps the ``sx`` contraction as the gather ran it
before it contracted node-major rows (``einsum("pi,pic->cp")`` over
row-major ``sx``), and the einsum deposit the fold before it read the
depth runs (``oracle_masked_fold``, which ``tests/test_mpu_deposit.py``
holds ``_fold_blocks`` to bit for bit).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.core.mpu_deposit import mpu_work_statistics
from repro.pic.blocks import BLOCK_ROWS, BlockLayout, cell_block_slots
from repro.pic.deposition.base import (
    TileDepositionData,
    prepare_tile_data,
    scatter_tile_currents,
    scratch_reduce,
)
from repro.pic.deposition.rhocell import scatter_rhocell_blocks
from repro.pic.gather import _cell_operand_offsets
from repro.pic.shapes import shape_factors
from repro.pic.stencil import (
    StencilOperator,
    box_geometry,
    box_node_ids,
)


def _current_tiles(grid, tiles: Sequence, charge: float, order: int) -> None:
    for tile in tiles:
        scatter_tile_currents(grid,
                              prepare_tile_data(grid, tile, charge, order))


def _rho_tiles(grid, tiles: Sequence, charge: float, order: int) -> None:
    cell_volume = float(np.prod(grid.cell_size))
    for tile in tiles:
        stencil = StencilOperator.for_grid(grid, tile.x, tile.y, tile.z, order)
        stencil.scatter(charge * tile.w / cell_volume, grid.rho)


def oracle_deposit_reference(grid, container, order: int,
                             executor=None) -> None:
    """``deposit_reference`` with one staging + box scatter per tile."""
    scratch_reduce(executor, grid, container.nonempty_tiles(),
                   _current_tiles, container.charge, order)


def oracle_deposit_rho_reference(grid, container, order: int,
                                 executor=None) -> None:
    """``deposit_rho_reference`` with one stencil per tile."""
    scratch_reduce(executor, grid, container.nonempty_tiles(),
                   _rho_tiles, container.charge, order, arrays=("rho",))


def pair_within_runs(cell_sequence: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Pair consecutive particles that share a cell in the processing order.

    Parameters
    ----------
    cell_sequence:
        The cell id of each particle in the order the kernel processes them
        (GPMA order when sorted, storage order otherwise).

    Returns
    -------
    first, second:
        Indices (into the processing order) of each pair's two particles;
        ``second`` is ``-1`` for the unpaired tail of an odd-length run.
    pair_valid2:
        Boolean mask, True where the pair has a second particle.
    pair_cell:
        Cell id of each pair.
    num_runs:
        Number of maximal runs of equal consecutive cells.  For a perfectly
        sorted sequence this equals the number of occupied cells; for an
        unsorted sequence it approaches the particle count, which is what
        makes the no-sort configurations pay for extra tile flushes.
    """
    cell_sequence = np.asarray(cell_sequence, dtype=np.int64)
    n = cell_sequence.shape[0]
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=bool), empty, 0

    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = cell_sequence[1:] != cell_sequence[:-1]
    run_id = np.cumsum(change) - 1
    num_runs = int(run_id[-1]) + 1
    run_start = np.nonzero(change)[0]
    pos_in_run = np.arange(n) - run_start[run_id]

    first = np.nonzero(pos_in_run % 2 == 0)[0]
    second = first + 1
    valid2 = (second < n)
    valid2[valid2] &= run_id[second[valid2]] == run_id[first[valid2]]
    second = np.where(valid2, second, -1)
    pair_cell = cell_sequence[first]
    return first, second, valid2, pair_cell, num_runs


def oracle_tile_rhocells(data: TileDepositionData, order_idx: np.ndarray,
                         num_cells: int
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Stage 2 exactly as ``HybridMPUDeposition.deposit_tile`` composed it."""
    contributions = (tile_contributions_cic if data.order == 1
                     else tile_contributions_qsp)
    cx, cy, cz, stats = contributions(data, order_idx)
    rho_x, rho_y, rho_z = scatter_rhocell_blocks(
        data.local_cell_ids[order_idx], num_cells, cx, cy, cz)
    return rho_x, rho_y, rho_z, stats


def tile_contributions_cic(data: TileDepositionData, order_idx: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Per-particle CIC nodal contributions computed through pair outer products.

    ``order_idx`` is the processing order (e.g. the GPMA iteration order).
    Returns three ``(n, 8)`` arrays — one per current component, rows in
    processing order — plus a dictionary of MPU work statistics
    (``mopa`` instructions per component, ``tile_flushes``, ``runs``).
    """
    cells = data.local_cell_ids[order_idx]
    first, second, valid2, _, num_runs = pair_within_runs(cells)
    n = order_idx.shape[0]
    npairs = first.shape[0]

    wx = data.wx[order_idx]
    wy = data.wy[order_idx]
    wz = data.wz[order_idx]

    # B operand per particle: s_y_j * s_z_k packed (j fast, k slow), length 4
    b_particle = np.einsum("pk,pj->pkj", wz, wy).reshape(n, 4)

    results = []
    # work statistics are reported *per current component*; the hybrid
    # kernel multiplies by three when charging the counters
    stats = {"mopa": float(npairs), "tile_flushes": float(num_runs),
             "runs": float(num_runs)}
    for wq_all in (data.wqx[order_idx], data.wqy[order_idx], data.wqz[order_idx]):
        # A operands of every pair: (npairs, 4); B operands: (npairs, 8)
        a_ops = np.zeros((npairs, 4))
        b_ops = np.zeros((npairs, 8))
        a_ops[:, 0:2] = wq_all[first, None] * wx[first]
        b_ops[:, 0:4] = b_particle[first]
        sec = second[valid2]
        a_ops[valid2, 2:4] = wq_all[sec, None] * wx[sec]
        b_ops[valid2, 4:8] = b_particle[sec]

        # the MOPA instructions: one 4x8 outer product per pair
        tiles = np.einsum("pi,pj->pij", a_ops, b_ops)

        per_particle = np.zeros((n, 8))
        # extract each particle's 2x4 block and reorder (i, j+2k) -> (i, j, k)
        block1 = tiles[:, 0:2, 0:4]
        block2 = tiles[:, 2:4, 4:8]
        per_particle[first] = _reorder_cic_block(block1)
        per_particle[sec] = _reorder_cic_block(block2[valid2])
        results.append(per_particle)

    return results[0], results[1], results[2], stats


def _reorder_cic_block(block: np.ndarray) -> np.ndarray:
    """Reorder a (m, 2, 4) outer-product block to the (i, j, k) rhocell layout."""
    m = block.shape[0]
    reordered = np.empty((m, 2, 2, 2))
    reordered[:, :, 0, 0] = block[:, :, 0]
    reordered[:, :, 1, 0] = block[:, :, 1]
    reordered[:, :, 0, 1] = block[:, :, 2]
    reordered[:, :, 1, 1] = block[:, :, 3]
    return reordered.reshape(m, 8)


def tile_contributions_qsp(data: TileDepositionData, order_idx: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Per-particle QSP nodal contributions via pair outer products.

    Returns three ``(n, 64)`` arrays plus MPU/VPU work statistics
    (``mopa``, ``tile_flushes``, ``vpu_sz_fma`` — the Stage-2 VPU
    multiply-accumulate by the s_z factors).
    """
    cells = data.local_cell_ids[order_idx]
    first, second, valid2, _, num_runs = pair_within_runs(cells)
    n = order_idx.shape[0]
    npairs = first.shape[0]

    wx = data.wx[order_idx]
    wy = data.wy[order_idx]
    wz = data.wz[order_idx]

    results = []
    # per-component work statistics (the hybrid kernel multiplies by three)
    stats = {
        "mopa": float(npairs),
        # the tile cannot stay resident across pairs for QSP (the s_z
        # multiply differs per particle), so it is read back per pair
        "tile_flushes": float(npairs + num_runs),
        "runs": float(num_runs),
        "vpu_sz_fma": float(n * 64) / 8.0,
    }
    for wq_all in (data.wqx[order_idx], data.wqy[order_idx], data.wqz[order_idx]):
        a_first = wq_all[first, None] * wx[first]          # (npairs, 4)
        b_first = wy[first]                                # (npairs, 4)
        sxy_first = np.einsum("pi,pj->pij", a_first, b_first)

        per_particle = np.zeros((n, 64))
        contrib_first = np.einsum("pij,pk->pijk", sxy_first, wz[first])
        per_particle[first] = contrib_first.reshape(npairs, 64)

        sec = second[valid2]
        if sec.size:
            a_sec = wq_all[sec, None] * wx[sec]
            b_sec = wy[sec]
            sxy_sec = np.einsum("pi,pj->pij", a_sec, b_sec)
            contrib_sec = np.einsum("pij,pk->pijk", sxy_sec, wz[sec])
            per_particle[sec] = contrib_sec.reshape(sec.size, 64)

        results.append(per_particle)

    return results[0], results[1], results[2], stats


def _row_major(factors: Tuple[np.ndarray, np.ndarray]
               ) -> Tuple[np.ndarray, np.ndarray]:
    """``shape_factors``' output with the weights in the row-major
    ``(n, S)`` layout the einsum formulation was written for."""
    base, weights = factors
    return base, np.ascontiguousarray(weights)


def einsum_deposit_panels(data: TileDepositionData, slots: np.ndarray,
                          rows: int) -> Tuple[np.ndarray, np.ndarray]:
    """``tile_rhocells``' operand panels ``A = wq (x) sx`` and
    ``B = sy (x) sz``, built in storage order and scattered to ``slots``."""
    n = data.num_particles
    support = data.support
    wx, wy, wz = (np.ascontiguousarray(w) for w in (data.wx, data.wy, data.wz))
    width_left = 3 * support
    width_right = support * support
    panels = np.zeros(rows * (width_left + width_right))
    left = panels[:rows * width_left].reshape(rows, width_left)
    right = panels[rows * width_left:].reshape(rows, width_right)
    wq = np.concatenate((data.wqx, data.wqy, data.wqz)).reshape(3, n)
    left[slots] = np.einsum("cp,pi->pci", wq, wx).reshape(n, width_left)
    right[slots] = np.einsum("pj,pk->pjk", wy, wz
                             ).reshape(n, width_right)
    return left, right


def storage_block_slots(cells: np.ndarray, num_cells: int,
                        order_idx: np.ndarray) -> BlockLayout:
    """:func:`cell_block_slots` of a processing order whose position ``p``
    is storage index ``order_idx[p]`` and holds cell ``cells[p]``, with
    ``slots`` indexed by storage index (the kernel groups such an order
    by cell first, ``core/mpu_deposit.py``)."""
    layout = cell_block_slots(cells, num_cells)
    slots = np.empty_like(layout.slots)
    slots[order_idx] = layout.slots
    return layout._replace(slots=slots)


def oracle_einsum_tile_rhocells(data: TileDepositionData,
                                order_idx: np.ndarray, num_cells: int
                                ) -> Tuple[np.ndarray, np.ndarray,
                                           np.ndarray, dict]:
    """``tile_rhocells`` over :func:`einsum_deposit_panels`."""
    support = data.support
    nodes = support**3
    cells = data.local_cell_ids[order_idx]
    stats = mpu_work_statistics(cells, data.order)
    layout = storage_block_slots(cells, num_cells, order_idx)
    num_blocks = layout.num_blocks
    left, right = einsum_deposit_panels(data, layout.slots,
                                        num_blocks * BLOCK_ROWS)

    products = np.matmul(
        left.reshape(num_blocks, BLOCK_ROWS, 3 * support).transpose(0, 2, 1),
        right.reshape(num_blocks, BLOCK_ROWS, support * support)
    ).reshape(num_blocks, 3 * nodes)

    rhocells = np.zeros((3, num_cells, nodes))
    rhocells[:, layout.cells] = (oracle_masked_fold(products, layout)
                                 .reshape(-1, 3, nodes).transpose(1, 0, 2))
    return rhocells[0], rhocells[1], rhocells[2], stats


def oracle_masked_fold(products: np.ndarray, layout: BlockLayout
                       ) -> np.ndarray:
    """``_fold_blocks`` as ``_piece_rhocells`` folded before it read the
    depth runs: rank by rank over all cells at once, each rank's blocks
    gathered under a mask of the cells at least that deep."""
    first_block, depth = layout.first_block, layout.depth
    folded = products[first_block]
    for rank in range(1, int(depth.max(initial=0))):
        more = depth > rank
        folded[more] += products[first_block[more] + rank]
    return folded


def oracle_einsum_gather_fields(grid, x: np.ndarray, y: np.ndarray,
                                z: np.ndarray, order: int
                                ) -> Tuple[np.ndarray, ...]:
    """``gather_fields`` with the einsum ``sy (x) sz`` panel, row-major
    shape factors, one ``(BLOCK_ROWS, S^2)`` product per block against
    a copy of its cell's operand (in-domain batches: a bounded field
    box) and the ``sx`` contraction as one ``einsum``."""
    fields = (grid.ex, grid.ey, grid.ez, grid.bx, grid.by, grid.bz)
    xi, yi, zi = grid.normalized_position(x, y, z)
    base_x, sx = _row_major(shape_factors(xi, order))
    base_y, sy = _row_major(shape_factors(yi, order))
    base_z, sz = _row_major(shape_factors(zi, order))
    n, support = sx.shape
    shape, periodic = grid.shape, grid.periodic
    lo, dims = box_geometry(shape, base_x, base_y, base_z, support)
    components = len(fields)

    node_ids = box_node_ids(lo, dims, shape, periodic)
    box = np.concatenate([field.reshape(-1)[node_ids] for field in fields])

    cells = ((base_x - lo[0]) * dims[1] + (base_y - lo[1])) * dims[2] \
        + (base_z - lo[2])
    num_cells = dims[0] * dims[1] * dims[2]
    layout = cell_block_slots(cells, num_cells)
    slots, num_blocks = layout.slots, layout.num_blocks

    plane = support * support
    width = support * components
    right = np.zeros((num_blocks * BLOCK_ROWS, plane))
    right[slots] = np.einsum("pj,pk->pjk", sy, sz).reshape(n, plane)
    # a cell owns its blocks consecutively: its operand, once per block
    owner = np.repeat(layout.cells, layout.depth)
    operand = box[owner[:, None]
                  + _cell_operand_offsets(dims, support, components)]
    rows = np.matmul(right.reshape(num_blocks, BLOCK_ROWS, plane),
                     operand.reshape(num_blocks, plane, width))
    rows = rows.reshape(num_blocks * BLOCK_ROWS, support, components)
    return tuple(np.einsum("pi,pic->cp", sx, rows[slots]))
