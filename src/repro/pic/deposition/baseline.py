"""WarpX-style direct-deposition baseline kernel (instrumented).

This models the unmodified WarpX kernel used as the performance reference
throughout the paper's evaluation: each particle scatters its ``S^3``
nodal contributions straight into the global current arrays.  The compiler
auto-vectorises the arithmetic only partially and the scattered
read-modify-write traffic goes to whatever cache line the particle's cell
happens to live on — so the modelled cost is dominated by far-memory
traffic whenever the particle order has poor cell locality, which is
exactly the bottleneck the paper identifies (§1, §3.2).

The numerical result is produced by the shared scatter-add helper, so the
baseline is bit-identical to the reference kernel.
"""

from __future__ import annotations

from repro.hardware.counters import KernelCounters
from repro.pic.deposition.base import (
    DepositionKernel,
    cell_switch_fraction,
    prepare_tile_data,
    scatter_tile_currents,
)
from repro.pic.grid import Grid
from repro.pic.particles import ParticleTile
from repro.pic.shapes import shape_support


class BaselineDeposition(DepositionKernel):
    """The unmodified (auto-vectorised, direct-write) deposition kernel.

    The CPU baseline of the paper owns one tile per thread, so its grid
    updates are plain (non-atomic) read-modify-writes.
    """

    name = "Baseline"

    #: Fraction of the arithmetic the compiler manages to vectorise; the
    #: remainder is charged as scalar instructions.  The paper observes
    #: that compilers struggle with the preprocessing stages (§6.3); 0.8
    #: reproduces the preprocess-to-compute split of Table 1.
    auto_vec_efficiency = 0.8

    # ------------------------------------------------------------------
    def deposit_tile(self, grid: Grid, tile: ParticleTile, charge: float,
                     order: int, counters: KernelCounters,
                     ordering=None, local_cells=None) -> None:
        # the direct scatter reads global cell ids only: local_cells unused
        data = prepare_tile_data(grid, tile, charge, order)
        n = data.num_particles
        if n == 0:
            return
        support = shape_support(order)
        nodes = support**3
        lanes = 8.0
        processing_cells = (data.cell_ids if ordering is None
                            else data.cell_ids[ordering])

        # --- Stage 1 equivalent: per-particle preparation -----------------
        pre = counters.phase("preprocess")
        # position normalisation, cell index, intra-cell offsets, 1-D shape
        # factors and the three effective-current terms.
        arithmetic_ops = n * (9.0 + 3.0 * (2.0 + 2.0 * support) + 6.0)
        vectorised = arithmetic_ops * self.auto_vec_efficiency / lanes
        scalar = arithmetic_ops * (1.0 - self.auto_vec_efficiency)
        pre.add(
            vpu_fma=vectorised,
            scalar_ops=scalar + 4.0 * n,   # loop control / index arithmetic
            vpu_mem=7.0 * n / lanes,       # SoA loads
            bytes_near=self.soa_read_bytes(n),
        )

        # --- Stage 2 equivalent: direct scatter into the global grid ------
        comp = counters.phase("compute")
        switch = cell_switch_fraction(processing_cells)
        write_bytes = self.grid_write_bytes(n, order)
        if ordering is not None:
            # indirect particle access through the sorted index array
            comp.add(vpu_gather_scatter=n / lanes, bytes_near=8.0 * n)
        comp.add(
            # the 3-D weight products and the three-component accumulation,
            # auto-vectorised across nodes
            vpu_fma=n * nodes * 4.0 * self.auto_vec_efficiency / lanes,
            scalar_ops=n * nodes * 4.0 * (1.0 - self.auto_vec_efficiency)
            + 3.0 * n,
            bytes_far=write_bytes * switch,
            bytes_near=write_bytes * (1.0 - switch),
        )

        self.charge_effective_work(counters, n, order)

        # --- numerical result ---------------------------------------------
        scatter_tile_currents(grid, data)
