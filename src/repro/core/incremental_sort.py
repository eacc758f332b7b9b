"""Incremental particle sorting (Phase 1 of Algorithm 1).

The :class:`IncrementalSorter` maintains, for every particle tile, a
:class:`~repro.core.gpma.GappedPMA` that keeps the tile's particle indices
grouped by cell.  Each timestep it

1. recomputes every particle's cell from its pushed position (VPU work that
   the deposition preprocessing performs anyway and is therefore cheap),
2. collects the particles whose cell changed into a pending-moves list,
3. applies the moves to the GPMA as one batch
   (:meth:`~repro.core.gpma.GappedPMA.apply_moves`) — O(1) deletions and
   insertions, with the occasional bounded borrow-shift or local rebuild,
   and
4. reports per-tile statistics (moved particles, rebuilds, gap reserve)
   that feed the adaptive global re-sorting policy of §4.4.

The **global sort** (``GlobalSortParticlesByCell``) physically permutes the
tile's SoA arrays with a counting sort and rebuilds the GPMA, restoring the
memory coherence that the index-only incremental updates cannot provide.

Everything here works on whole int64 arrays — the tile's cell ids, the
sort permutation, the GPMA's slot array, inverse maps and flat gap stacks
(layout in :mod:`repro.core.gpma`) — so a global sort and a batch of moves
whose target cells have the gaps to take them cost a fixed number of NumPy
passes however many particles the tile holds.  Only a batch that must
borrow gaps across cells runs its insertions one at a time.

**What is not incremental.**  The sort state is keyed to the tile's
particle count: a tile that gained or lost a particle since its last visit
(the moving window's refill, or ``migrate`` — which also absorbs what the
window left behind and re-tiles its shift) is not updated but rebuilt from
scratch by a global sort of that tile (:meth:`IncrementalSorter.ensure_tile_state`).
The paper's Stage 1 inserts arrivals into the existing structure instead;
doing so here would change the work counters and the modelled sort share,
so it is left to a change that re-baselines them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import SortingPolicyConfig
from repro.core.counting_sort import counting_sort_permutation, counting_sort_work
from repro.core.gpma import GappedPMA, GPMAUpdateStats
from repro.hardware.counters import KernelCounters
from repro.pic.grid import Grid
from repro.pic.particles import ParticleTile

#: a tile's GPMA is rebuilt in :meth:`IncrementalSorter.incremental_update_tile`
#: once its empty-slot reserve falls below this share of its capacity
REBUILD_EMPTY_RATIO = 0.02


@dataclass
class TileSortState:
    """Per-tile sorting state attached to ``ParticleTile.sorter``."""

    gpma: GappedPMA
    #: bin currently recorded for every particle index (mirrors the GPMA)
    assigned_bins: np.ndarray

    @property
    def num_particles(self) -> int:
        """Particles tracked by this state."""
        return int(self.assigned_bins.shape[0])


@dataclass
class StepSortStats:
    """Per-step sorting statistics of one tile (or one rank when merged)."""

    moved_particles: int = 0
    pending_inserts: int = 0
    borrow_shifts: int = 0
    local_rebuilds: int = 0
    global_sorts: int = 0
    total_slots: int = 0
    empty_slots: int = 0

    def merge(self, other: "StepSortStats") -> None:
        """Accumulate another tile's statistics."""
        self.moved_particles += other.moved_particles
        self.pending_inserts += other.pending_inserts
        self.borrow_shifts += other.borrow_shifts
        self.local_rebuilds += other.local_rebuilds
        self.global_sorts += other.global_sorts
        self.total_slots += other.total_slots
        self.empty_slots += other.empty_slots


class IncrementalSorter:
    """Maintains cell-sorted particle order with O(1) amortised updates."""

    def __init__(self, config: Optional[SortingPolicyConfig] = None):
        self.config = config if config is not None else SortingPolicyConfig()

    # ------------------------------------------------------------------
    # global (per-tile) sort
    # ------------------------------------------------------------------
    def global_sort_tile(self, grid: Grid, tile: ParticleTile,
                         counters: Optional[KernelCounters] = None
                         ) -> StepSortStats:
        """Counting-sort the tile's SoA arrays and rebuild its GPMA."""
        stats = StepSortStats(global_sorts=1)
        n = tile.num_particles
        num_cells = tile.num_cells
        bins = np.empty(0, dtype=np.int64)
        if n > 0:
            cell_ids = tile.local_cell_ids(grid)
            order, _ = counting_sort_permutation(cell_ids, num_cells)
            tile.permute(order)
            bins = cell_ids[order]
        gpma = GappedPMA(num_cells, gap_fraction=self.config.gap_fraction)
        build_stats = gpma.build(bins)
        # a freshly built structure does not count towards the rebuild trigger
        gpma.rebuild_count = 0
        tile.sorter = TileSortState(gpma=gpma, assigned_bins=bins)

        stats.total_slots = gpma.capacity
        stats.empty_slots = gpma.num_empty_slots
        if counters is not None:
            sort = counters.phase("sort")
            sort.add(**counting_sort_work(n, num_cells))
            sort.add(scalar_ops=2.0 * build_stats.rebuild_elements,
                     bytes_near=8.0 * build_stats.rebuild_elements)
        return stats

    def ensure_tile_state(self, grid: Grid, tile: ParticleTile,
                          counters: Optional[KernelCounters] = None,
                          stats: Optional[StepSortStats] = None
                          ) -> TileSortState:
        """Return the tile's sort state, (re)building it when stale.

        The state becomes stale whenever particles were added to or removed
        from the tile (``ParticleTile.append``/``remove`` clear the sorter
        slot).  A stale tile is *rebuilt from scratch* with
        :meth:`global_sort_tile` — the paper's Stage 1 of §4.3.1 inserts
        the arrivals into the existing GPMA instead; this reproduction
        does not, so a tile whose population changed pays a full counting
        sort.  The rebuild's statistics are merged into ``stats``.
        """
        state = tile.sorter
        if isinstance(state, TileSortState) and state.num_particles == tile.num_particles:
            return state
        rebuild = self.global_sort_tile(grid, tile, counters)
        if stats is not None:
            stats.merge(rebuild)
        return tile.sorter

    # ------------------------------------------------------------------
    # incremental update
    # ------------------------------------------------------------------
    def incremental_update_tile(self, grid: Grid, tile: ParticleTile,
                                counters: Optional[KernelCounters] = None
                                ) -> StepSortStats:
        """Apply one timestep's pending moves to the tile's GPMA."""
        stats = StepSortStats()
        n = tile.num_particles
        if n == 0:
            return stats
        state = self.ensure_tile_state(grid, tile, counters, stats)
        gpma = state.gpma
        gpma.reset_step_flags()

        # a tile sorted a moment ago has this step's cells on record already
        new_bins = (state.assigned_bins if stats.global_sorts
                    else tile.local_cell_ids(grid))
        moved = np.nonzero(new_bins != state.assigned_bins)[0]
        stats.moved_particles = int(moved.size)

        # Stage 2 of §4.3.1: deletions first (marking old slots empty), then
        # the pending-move insertions.
        update = gpma.apply_moves(moved, new_bins[moved])

        if gpma.overflow or gpma.needs_rebuild(REBUILD_EMPTY_RATIO):
            rebuild = gpma.build(new_bins)
            update.merge(rebuild)
            stats.local_rebuilds += 1

        state.assigned_bins = new_bins
        stats.pending_inserts = update.insertions
        stats.borrow_shifts = update.borrow_shifts
        stats.total_slots = gpma.capacity
        stats.empty_slots = gpma.num_empty_slots

        if counters is not None:
            self._charge_incremental_work(counters, n, update, moved.size)
        return stats

    def _charge_incremental_work(self, counters: KernelCounters, n: int,
                                 update: GPMAUpdateStats, moved: int) -> None:
        sort = counters.phase("sort")
        lanes = 8.0
        # cell recomputation is shared with deposition preprocessing; only the
        # comparison against the stored bins and the mask compaction is new
        sort.add(vpu_alu=2.0 * n / lanes, bytes_near=8.0 * n)
        # O(1) slot updates for the moved particles
        sort.add(scalar_ops=8.0 * (update.deletions + update.insertions),
                 bytes_near=32.0 * moved)
        # bounded borrow shifts and local rebuilds
        sort.add(scalar_ops=2.0 * update.borrow_shifts
                 + 2.0 * update.rebuild_elements,
                 bytes_near=8.0 * update.borrow_shifts
                 + 16.0 * update.rebuild_elements)

    # ------------------------------------------------------------------
    # queries used by the deposition kernels
    # ------------------------------------------------------------------
    @staticmethod
    def iteration_order(tile: ParticleTile) -> Optional[np.ndarray]:
        """Cell-sorted particle order of a tile, or None when unsorted."""
        state = tile.sorter
        if isinstance(state, TileSortState):
            return state.gpma.iteration_order()
        return None

    @staticmethod
    def bin_population(tile: ParticleTile) -> Optional[np.ndarray]:
        """Per-cell particle counts of a tile, or None when unsorted."""
        state = tile.sorter
        if isinstance(state, TileSortState):
            return state.gpma.bin_population()
        return None
