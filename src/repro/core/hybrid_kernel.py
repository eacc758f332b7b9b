"""Hybrid VPU-MPU current-deposition kernel (Algorithm 2 of the paper).

The kernel processes each tile in three stages:

1. **VPU preprocessing** — load the particles' SoA records, compute cell
   indices, intra-cell coordinates, the 1-D shape factors and the three
   effective-current terms, and stage them for the MPU (hand-tuned
   intrinsics in the paper, so the modelled instruction stream is fully
   vectorised).
2. **MPU deposition** — pair cell-sorted particles and issue one MOPA
   outer-product per pair per current component, keeping the tile register
   resident per cell (CIC) or reading it back per pair (QSP, where the
   trailing s_z multiply is VPU work); accumulate into the rhocell buffer.
   That is the instruction stream the counters are charged for; the
   values come from :func:`~repro.core.mpu_deposit.tile_rhocells`, which
   sums the same outer products as stacked per-cell matrix products (BLAS
   GEMM standing in for the resident MOPA accumulation) in ``ordering``
   — the only kernel whose numerics read it, hence the permutation check.
3. **VPU postprocessing** — reduce the rhocell buffer to the global
   current arrays with indexed scatter-adds.

Two instrumentation modes reproduce the ablation configurations of §6.2:

* ``mode="hybrid"`` (default) — the full hybrid kernel with hand-tuned VPU
  staging,
* ``mode="matrix_only"`` — the MPU arithmetic with naive (auto-vectorised)
  data staging, isolating the MPU's raw computational contribution.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import SHAPE_ORDER_CIC, SHAPE_ORDER_QSP
from repro.core.mpu_deposit import tile_rhocells
from repro.hardware.counters import KernelCounters
from repro.pic.deposition.base import (
    DepositionKernel,
    cell_switch_fraction,
    prepare_tile_data,
)
from repro.pic.deposition.rhocell import reduce_rhocells_to_grid
from repro.pic.grid import Grid
from repro.pic.particles import ParticleTile
from repro.pic.shapes import shape_support

_MODES = ("hybrid", "matrix_only")


class HybridMPUDeposition(DepositionKernel):
    """The Matrix-PIC deposition kernel (MPU outer products + VPU staging)."""

    def __init__(self, mode: str = "hybrid"):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.mode = mode
        self.name = "MatrixPIC" if mode == "hybrid" else "Matrix-only"

    # ------------------------------------------------------------------
    def deposit_tile(self, grid: Grid, tile: ParticleTile, charge: float,
                     order: int, counters: KernelCounters,
                     ordering: Optional[np.ndarray] = None) -> None:
        if order not in (SHAPE_ORDER_CIC, SHAPE_ORDER_QSP):
            raise ValueError(
                "the MPU kernel supports the CIC (1) and QSP (3) schemes only"
            )
        data = prepare_tile_data(grid, tile, charge, order)
        n = data.num_particles
        if n == 0:
            return
        lanes = 8.0
        support = shape_support(order)
        nodes = support**3
        order_idx = (np.arange(n, dtype=np.int64) if ordering is None
                     else np.asarray(ordering, dtype=np.int64))
        if order_idx.shape != (n,):
            raise ValueError("ordering length does not match particle count")
        if ordering is not None and (
                order_idx.min() < 0 or order_idx.max() >= n
                or np.any(np.bincount(order_idx, minlength=n) != 1)):
            raise ValueError("ordering is not a permutation of the particles")
        processing_cells = data.local_cell_ids[order_idx]
        switch = cell_switch_fraction(processing_cells)

        # --- Stage 1: VPU preprocessing -------------------------------------
        pre = counters.phase("preprocess")
        arithmetic_ops = n * (9.0 + 3.0 * (2.0 + 2.0 * support) + 6.0)
        if self.mode == "hybrid":
            # hand-tuned intrinsics: fused shape-factor/operand construction;
            # part of the per-node weight-product work of the VPU kernels is
            # replaced by the outer product itself, hence the 0.75 factor
            pre.add(
                vpu_fma=0.6 * arithmetic_ops / lanes,
                vpu_alu=0.15 * arithmetic_ops / lanes,
                scalar_ops=0.25 * n,
                vpu_mem=7.0 * n / lanes,
            )
        else:
            # "Matrix-only": the MPU arithmetic with naive, compiler-level
            # data staging (the preprocessing of the auto-vectorised baseline)
            vec_eff = 0.8
            pre.add(
                vpu_fma=arithmetic_ops * vec_eff / lanes,
                scalar_ops=arithmetic_ops * (1.0 - vec_eff) + 4.0 * n,
                vpu_mem=7.0 * n / lanes,
            )
        # particle records are streamed when sorted in memory, gathered when
        # only the index order is sorted or when no sorting happened at all
        soa_bytes = self.soa_read_bytes(n)
        if ordering is None:
            pre.add(bytes_near=soa_bytes)
        else:
            pre.add(vpu_gather_scatter=n / lanes,
                    bytes_near=soa_bytes, bytes_far=8.0 * n * 0.1)

        # --- Stage 2: MPU deposition into the rhocell buffer -----------------
        comp = counters.phase("compute")
        *rhocells, stats = tile_rhocells(data, order_idx, tile.num_cells)

        # MOPA instructions for the three components, the operand assembly
        # (A/B construction, ~12 VPU ops per pair) and the operand loads
        # into the MPU input registers (2 vector moves per pair) — the
        # VPU-MPU data-movement cost the paper identifies as the gap between
        # the anticipated 2x and the observed 1.5x kernel speedup (§6.1)
        comp.add(mpu_mopa=3.0 * stats["mopa"],
                 mpu_tile_moves=3.0 * stats["tile_flushes"],
                 vpu_alu=3.0 * stats["mopa"] * (12.0 / lanes),
                 vpu_mem=3.0 * stats["mopa"] * 2.0)
        if "vpu_sz_fma" in stats:
            comp.add(vpu_fma=3.0 * stats["vpu_sz_fma"])
        # writing each run's accumulated tile block out to the rhocell
        rho_write_bytes = stats["tile_flushes"] * nodes * 3.0 * 8.0
        comp.add(bytes_near=rho_write_bytes * (1.0 - switch * 0.5),
                 bytes_far=rho_write_bytes * switch * 0.5)
        self.charge_effective_work(counters, n, order)

        # --- Stage 3: VPU reduction of the rhocell buffer ---------------------
        red = counters.phase("reduce")
        elements = float(tile.num_cells) * nodes * 3.0
        red.add(
            vpu_mem=elements / lanes,
            vpu_gather_scatter=elements / lanes,
            bytes_near=elements * 8.0,
            bytes_far=elements * 8.0,
        )
        reduce_rhocells_to_grid(grid, tile, order, *rhocells)
