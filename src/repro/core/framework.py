"""The Matrix-PIC deposition framework (Algorithm 1 of the paper).

:class:`MatrixPICDeposition` is the deposition strategy that the benchmarks
and the simulation loop install: per tile it runs the incremental-sort
preparation phase, then the (hybrid MPU or VPU) deposition kernel over the
cell-sorted particles, and per step it evaluates the adaptive global
re-sorting policy.

The class is deliberately generic over the kernel: combining it with the
baseline or rhocell kernels yields the ``Baseline+IncrSort`` and
``Rhocell+IncrSort`` configurations of the comparative study, while the
sorting mode selects between the ablation variants (no sort, global sort
every step, incremental + adaptive global sort).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.config import SortingPolicyConfig
from repro.core.hybrid_kernel import HybridMPUDeposition
from repro.core.incremental_sort import IncrementalSorter, StepSortStats
from repro.core.sort_policy import GlobalSortPolicy, RankSortStats
from repro.hardware.cost_model import CostModel
from repro.hardware.counters import KernelCounters
from repro.pic.deposition.base import DepositionKernel, scratch_reduce
from repro.pic.grid import Grid
from repro.pic.particles import ParticleContainer, ParticleTile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec import TileExecutor

#: Supported sorting modes.
SORT_NONE = "none"
SORT_GLOBAL_EVERY_STEP = "global_every_step"
SORT_INCREMENTAL = "incremental"
_SORT_MODES = (SORT_NONE, SORT_GLOBAL_EVERY_STEP, SORT_INCREMENTAL)


def _sort_and_deposit_tiles(target: Grid, tiles: Sequence[ParticleTile],
                            strategy: "MatrixPICDeposition", charge: float,
                            order: int
                            ) -> Tuple[KernelCounters, StepSortStats]:
    """:func:`scratch_reduce` body: sort (as configured) + deposit tiles.

    ``target`` is the real grid at one shard and a shard-private scratch
    grid with the same live geometry otherwise, so it serves both the
    sorter's cell ids and the kernel's accumulation.  The incremental
    sorter's state lives on the tiles themselves (``tile.sorter``), so
    shards may run concurrently as long as each tile belongs to exactly
    one shard.  Counters and sort statistics are shard-private and
    returned for the caller to merge in shard order.
    """
    counters = KernelCounters()
    step_stats = StepSortStats()
    for tile in tiles:
        ordering = local_cells = None
        if strategy.sort_mode == SORT_INCREMENTAL:
            step_stats.merge(strategy.sorter.incremental_update_tile(
                target, tile, counters))
            ordering = strategy.sorter.iteration_order(tile)
        elif strategy.sort_mode == SORT_GLOBAL_EVERY_STEP:
            # after a physical sort the storage order *is* the cell order
            step_stats.merge(strategy.sorter.global_sort_tile(
                target, tile, counters))
        if strategy.sort_mode != SORT_NONE:
            # the sort state holds this storage order's tile-local cell ids
            # (same floor, wrap and clip as the staging), computed by the
            # sorter this step or handed over by the migration regroup:
            # at most one cell-id pass per tile per deposit
            local_cells = tile.sorter.assigned_bins
        strategy.kernel.deposit_tile(target, tile, charge, order, counters,
                                     ordering=ordering,
                                     local_cells=local_cells)
    return counters, step_stats


class MatrixPICDeposition:
    """Deposition strategy combining sorting machinery and a kernel."""

    def __init__(self, kernel: Optional[DepositionKernel] = None,
                 sort_mode: str = SORT_INCREMENTAL,
                 sorting_config: Optional[SortingPolicyConfig] = None,
                 cost_model: Optional[CostModel] = None,
                 name: Optional[str] = None):
        if sort_mode not in _SORT_MODES:
            raise ValueError(f"sort_mode must be one of {_SORT_MODES}")
        self.kernel = kernel if kernel is not None else HybridMPUDeposition()
        self.sort_mode = sort_mode
        self.sorting_config = (sorting_config if sorting_config is not None
                               else SortingPolicyConfig())
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.name = name if name is not None else self.kernel.name

        self.sorter = IncrementalSorter(self.sorting_config)
        self.policy = GlobalSortPolicy(self.sorting_config)
        self.rank_stats = RankSortStats()
        #: number of adaptive global sorts performed so far
        self.global_sorts_performed = 0

    # ------------------------------------------------------------------
    def run_step(self, grid: Grid, container: ParticleContainer,
                 order: int, step: int,
                 executor: "TileExecutor | None" = None) -> KernelCounters:
        """Sort (as configured) and deposit one species for one step.

        The per-tile sort + deposit work is sharded by
        :func:`~repro.pic.deposition.base.scratch_reduce` — the
        incremental sorter mutates the GPMA state attached to each tile
        in place — and the per-shard counters and sort statistics merge
        in shard order: the deposited current is bitwise identical
        across backends at the same shard count.  The
        adaptive global re-sorting policy always evaluates serially on the
        merged statistics.
        """
        counters = KernelCounters()
        step_stats = StepSortStats()
        for shard_counters, shard_stats in scratch_reduce(
                executor, grid, container.nonempty_tiles(),
                _sort_and_deposit_tiles, self, container.charge, order):
            counters.merge(shard_counters)
            step_stats.merge(shard_stats)

        if self.sort_mode == SORT_INCREMENTAL:
            self._update_global_sort_policy(grid, container, counters, step_stats)
        return counters

    # ------------------------------------------------------------------
    def _update_global_sort_policy(self, grid: Grid,
                                   container: ParticleContainer,
                                   counters: KernelCounters,
                                   step_stats: StepSortStats) -> None:
        timing = self.cost_model.timing(counters)
        throughput = self.cost_model.throughput(timing, container.num_particles)
        self.rank_stats.record_step(
            rebuilds=step_stats.local_rebuilds,
            moved=step_stats.moved_particles,
            total_slots=step_stats.total_slots,
            empty_slots=step_stats.empty_slots,
            throughput=throughput,
        )
        if self.policy.should_sort(self.rank_stats):
            for tile in container.iter_tiles():
                if tile.num_particles == 0:
                    continue
                self.sorter.global_sort_tile(grid, tile, counters)
            self.global_sorts_performed += 1
            self.rank_stats.reset()

    # ------------------------------------------------------------------
    def timing(self, counters: KernelCounters):
        """Convenience: convert counters with this strategy's cost model."""
        return self.cost_model.timing(counters)
