"""The per-particle MatrixPIC Stage 2, kept as the test oracle.

This is what ``repro.core.mpu_deposit`` shipped before Stage 2 became a
stacked block-matrix product: per current component it builds every
particle's full ``S^3`` nodal block through pair outer products
(``tile_contributions_cic`` / ``tile_contributions_qsp``, verbatim) and
hands the ``(n, S^3)`` arrays to ``scatter_rhocell_blocks``' ``bincount``.
It is slow, allocates ~2.8 KiB per particle and is obviously right; it
exists only so ``tests/test_mpu_deposit.py`` can hold the production
``tile_rhocells`` to its values (to summation order) and to its work
statistics (exactly — they feed ``KernelCounters``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.mpu_deposit import pair_within_runs
from repro.pic.deposition.base import TileDepositionData
from repro.pic.deposition.rhocell import scatter_rhocell_blocks


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
