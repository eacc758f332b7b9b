"""Rhocell deposition kernels (Vincenti et al., §3.4 of the paper).

Instead of scattering every particle's contributions directly into the
global grid, the rhocell approach accumulates them into a per-cell,
contiguous block of ``S^3`` entries per current component — eliminating
write conflicts between SIMD lanes — and performs a single
``O(N_cells)`` reduction to the grid afterwards (Equation 5).

Two instrumented variants are provided, matching the comparative study of
§6.3:

* ``RhocellDeposition(hand_tuned=False)`` — the compiler auto-vectorised
  reproduction ("Rhocell (auto-vec)" in Table 1),
* ``RhocellDeposition(hand_tuned=True)`` — the manually vectorised kernel
  ("Rhocell+IncrSort (VPU)" when combined with the incremental sorter),
  whose preprocessing issues far fewer instructions.

Both variants share the same numerics and therefore produce grid currents
identical to the reference kernel.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backend import ActiveKernels
from repro.hardware.counters import KernelCounters
from repro.pic.deposition.base import (
    DepositionKernel,
    cell_switch_fraction,
    prepare_tile_data,
    TileDepositionData,
)
from repro.pic.grid import Grid
from repro.pic.particles import ParticleTile
from repro.pic.shapes import combined_weights, shape_support
from repro.pic.stencil import StencilOperator, cell_block_ids, scatter_flat


def scatter_rhocell_blocks(cell_ids: np.ndarray, num_cells: int,
                           contrib_x: np.ndarray, contrib_y: np.ndarray,
                           contrib_z: np.ndarray,
                           kernels: Optional[ActiveKernels] = None
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scatter-add per-particle nodal contributions into per-cell blocks.

    ``contrib_*`` have shape ``(n, S^3)`` and ``cell_ids`` maps each row
    to its tile-local cell.  Returns three ``(num_cells, S^3)`` arrays —
    one per current component.  The block layout is a flat-index scatter:
    entry ``(cell, node)`` lives at linear id ``cell * S^3 + node``, so
    each component is one ``np.bincount`` pass over the flattened
    contributions.
    """
    cell_ids = np.asarray(cell_ids, dtype=np.int64)
    nodes = contrib_x.shape[-1]
    if contrib_x.shape != (cell_ids.shape[0], nodes):
        raise ValueError(
            f"contribution shape {contrib_x.shape} does not match "
            f"{cell_ids.shape[0]} cell ids"
        )
    block_ids = cell_block_ids(cell_ids, nodes)
    blocks = []
    for contrib in (contrib_x, contrib_y, contrib_z):
        block = np.zeros((num_cells, nodes))
        scatter_flat(block_ids, contrib, block, kernels)
        blocks.append(block)
    return tuple(blocks)


def accumulate_rhocells(data: TileDepositionData, num_cells: int,
                        kernels: Optional[ActiveKernels] = None
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accumulate staged particles into per-cell rhocell blocks.

    Returns three arrays of shape ``(num_cells, S^3)`` — one per current
    component — indexed by the tile-local cell id.
    """
    if data.order == 2:
        raise ValueError(
            "the rhocell layout requires a stencil anchored to the particle's "
            "cell; order 2 (TSC) anchors to the nearest node and is only "
            "supported by the direct kernels"
        )
    # 3-D shape weights, flattened per particle to the rhocell layout
    weights = combined_weights(data.wx, data.wy, data.wz)
    weights = weights.reshape(data.num_particles, data.support**3)
    return scatter_rhocell_blocks(
        data.local_cell_ids, num_cells, data.wqx[:, None] * weights,
        data.wqy[:, None] * weights, data.wqz[:, None] * weights, kernels)


def reduce_rhocells_to_grid(grid: Grid, tile: ParticleTile, order: int,
                            rho_jx: np.ndarray, rho_jy: np.ndarray,
                            rho_jz: np.ndarray) -> None:
    """Scatter-add the rhocell blocks of a tile into the global grid.

    This is the Equation-5 reduction: one pass over the tile's cells, each
    contributing its ``S^3`` node values to the surrounding grid nodes.
    """
    if order == 2:
        raise ValueError("order 2 (TSC) is not supported by the rhocell layout")
    support = shape_support(order)
    cx, cy, cz = tile.tile_cells
    num_cells = cx * cy * cz
    if rho_jx.shape != (num_cells, support**3):
        raise ValueError(
            f"rhocell shape {rho_jx.shape} does not match tile "
            f"({num_cells} cells, support {support})"
        )
    # cell coordinates of every tile-local cell id
    local = np.arange(num_cells)
    lx = local // (cy * cz) + tile.cell_lo[0]
    ly = (local // cz) % cy + tile.cell_lo[1]
    lz = local % cz + tile.cell_lo[2]
    # first node index of the shape stencil relative to the cell:
    # CIC anchors at the cell's lower vertex, QSP one node below it
    offset = 0 if order == 1 else -1

    # one (num_cells, S^3) stencil, node order (i, j, k) row-major —
    # identical to the rhocell block layout, so the blocks scatter as-is
    op = StencilOperator.from_bases(grid.shape, grid.periodic,
                                    lx + offset, ly + offset, lz + offset,
                                    support, kernels=grid.kernels)
    op.scatter_values(rho_jx, grid.jx)
    op.scatter_values(rho_jy, grid.jy)
    op.scatter_values(rho_jz, grid.jz)


class RhocellDeposition(DepositionKernel):
    """Rhocell-based VPU deposition (auto-vectorised or hand-tuned)."""

    def __init__(self, hand_tuned: bool = False):
        self.hand_tuned = hand_tuned
        self.name = "Rhocell (VPU)" if hand_tuned else "Rhocell (auto-vec)"
        #: fraction of the preprocessing arithmetic that reaches SIMD form
        self.vec_efficiency = 1.0 if hand_tuned else 0.8

    # ------------------------------------------------------------------
    def deposit_tile(self, grid: Grid, tile: ParticleTile, charge: float,
                     order: int, counters: KernelCounters,
                     ordering=None) -> None:
        data = prepare_tile_data(grid, tile, charge, order)
        n = data.num_particles
        if n == 0:
            return
        support = shape_support(order)
        nodes = support**3
        lanes = 8.0
        num_cells = tile.num_cells
        processing_cells = (data.local_cell_ids if ordering is None
                            else data.local_cell_ids[ordering])

        # --- Stage 1: VPU preprocessing ------------------------------------
        pre = counters.phase("preprocess")
        arithmetic_ops = n * (9.0 + 3.0 * (2.0 + 2.0 * support) + 6.0)
        if self.hand_tuned:
            # hand-written intrinsics: fully vectorised, fused, no scalar
            # residue beyond the loop bookkeeping
            pre.add(
                vpu_fma=arithmetic_ops / lanes,
                scalar_ops=n * 0.5,
                vpu_mem=7.0 * n / lanes,
                bytes_near=self.soa_read_bytes(n),
            )
        else:
            vectorised = arithmetic_ops * self.vec_efficiency / lanes
            scalar = arithmetic_ops * (1.0 - self.vec_efficiency)
            pre.add(
                vpu_fma=vectorised,
                scalar_ops=scalar + 4.0 * n,
                vpu_mem=7.0 * n / lanes,
                bytes_near=self.soa_read_bytes(n),
            )

        # --- Stage 2: accumulate into rhocells ------------------------------
        comp = counters.phase("compute")
        switch = cell_switch_fraction(processing_cells)
        rho_bytes = float(n) * nodes * 3.0 * 8.0 * 2.0  # read-modify-write
        weight_ops = n * nodes * 4.0                     # S_ijk products + FMA
        if ordering is not None:
            # indirect particle access through the sorted index array
            comp.add(vpu_gather_scatter=n / lanes, bytes_near=8.0 * n)
        if self.hand_tuned:
            comp.add(vpu_fma=weight_ops / lanes,
                     scalar_ops=0.5 * n)
        else:
            comp.add(vpu_fma=weight_ops * self.vec_efficiency / lanes,
                     scalar_ops=weight_ops * (1.0 - self.vec_efficiency)
                     + 2.0 * n)
        # the rhocell row of the particle's cell stays cached while
        # consecutive particles share a cell; every cell switch refetches it.
        # Unlike the direct kernel's grid traffic, the rhocell array of a
        # tile is compact (S^3 entries per cell), so a large share of the
        # "far" accesses still hit the last-level cache — modelled by the
        # 0.6 discount, which reproduces the Baseline-vs-Rhocell compute gap
        # of Table 1.  The hand-tuned kernel additionally register-blocks
        # the accumulation of consecutive same-cell particles, cutting its
        # read-modify-write traffic (0.7 factor).
        far_fraction = 0.6 * switch
        if self.hand_tuned:
            rho_bytes *= 0.7
        comp.add(bytes_near=rho_bytes * (1.0 - far_fraction),
                 bytes_far=rho_bytes * far_fraction)
        self.charge_effective_work(counters, n, order)

        # --- Stage 3: reduction to the global grid --------------------------
        red = counters.phase("reduce")
        elements = float(num_cells) * nodes * 3.0
        red.add(
            vpu_mem=elements / lanes,
            vpu_gather_scatter=elements / lanes,
            bytes_near=elements * 8.0,
            bytes_far=elements * 8.0 * 2.0 * 0.5,  # scattered grid RMW
        )

        # --- numerics --------------------------------------------------------
        rho_jx, rho_jy, rho_jz = accumulate_rhocells(data, num_cells,
                                                     grid.kernels)
        reduce_rhocells_to_grid(grid, tile, order, rho_jx, rho_jy, rho_jz)
