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

The **global sort** (``GlobalSortParticlesByCell``) leaves the tile's SoA
arrays in cell order — by a counting sort and permute, or by adopting the
order the migration regroup left (below) — and starts a fresh GPMA,
restoring the memory coherence that the index-only incremental updates
cannot provide.

Everything here works on whole int64 arrays — the tile's cell ids, the
sort permutation, the GPMA's slot array, inverse maps and flat gap stacks
(layout in :mod:`repro.core.gpma`) — so a global sort and a batch of moves
whose target cells have the gaps to take them cost a fixed number of NumPy
passes however many particles the tile holds.  Only a batch that must
borrow gaps across cells runs its insertions one at a time.

**What is not incremental.**  A tile that gained or lost a particle since
its last visit (``migrate``, which also places the moving window's
refill, absorbs what the window left behind and re-tiles its shift) gets
a fresh sort state instead of GPMA deletions and insertions; the paper's
Stage 1 inserts the arrivals into the existing structure.  On the wall
clock the fresh state already costs in proportion to the movers: the
migration reads the tile's pre-push cells off its sort state
(``assigned_bins``, relabelled by the window's shift), keeps the
particles still in them where they are in cell order, sorts only the
cell changers, arrivals and refill and merges them in
(:meth:`~repro.pic.particles.ParticleContainer.redistribute`), and hands
over the cell ids (``ParticleTile.sorted_cells``) with each cell's
population (``ParticleTile.sorted_population``), which
:meth:`IncrementalSorter.global_sort_tile` adopts as they are.  A fresh
state's GPMA is built only when an incremental update first needs it
(:class:`TileSortState`).  The modelled clock still charges every fresh
state a counting sort and a GPMA build; charging a departure as a
delete, an arrival as an insert and a shift as a bin relabel would change
the work counters and the modelled sort share, so it is left to a change
that re-baselines them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.core.counting_sort import counting_sort_permutation, counting_sort_work
from repro.core.gpma import GappedPMA, GPMAUpdateStats
from repro.hardware.counters import KernelCounters
from repro.pic.grid import Grid
from repro.pic.particles import ParticleTile

#: a tile's GPMA is rebuilt in :meth:`IncrementalSorter.incremental_update_tile`
#: once its empty-slot reserve falls below this share of its capacity
REBUILD_EMPTY_RATIO = 0.02


class TileSortState:
    """Per-tile sorting state attached to ``ParticleTile.sorter``.

    Made by a global sort, which leaves the tile's storage order in cell
    order.  So a fresh state holds only the sorted bins and an empty
    :class:`GappedPMA`, built from those bins when an incremental update
    first needs it (:attr:`gpma`).  Until then the iteration order is the
    identity and the slot count comes from the build's capacity formula
    (:meth:`GappedPMA.region_sizes`) — both what the built structure
    would give.
    """

    def __init__(self, assigned_bins: np.ndarray, population: np.ndarray,
                 gpma: GappedPMA):
        #: bin currently recorded for every particle index (mirrors the GPMA)
        self.assigned_bins = assigned_bins
        self._gpma = gpma
        self._built = False
        #: slots of the structure built from the sorted bins, whose
        #: ``population`` per bin the caller hands over
        self.fresh_capacity = int(gpma.region_sizes(population).sum())

    @property
    def num_particles(self) -> int:
        """Particles tracked by this state."""
        return int(self.assigned_bins.shape[0])

    @property
    def gpma(self) -> GappedPMA:
        """The tile's GPMA, built from the sorted bins on first use."""
        if not self._built:
            self._gpma.build(self.assigned_bins)
            # the deferred build is the global sort's, not a local rebuild
            self._gpma.rebuild_count = 0
            self._built = True
        return self._gpma

    def iteration_order(self) -> np.ndarray:
        """Particle indices in cell-sorted order."""
        if self._built:
            return self._gpma.iteration_order()
        return np.arange(self.num_particles, dtype=np.int64)

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Copies for a snapshot: the bins, and the GPMA if it is built
        (taking them never builds it)."""
        arrays = {"bins": self.assigned_bins.copy()}
        if self._built:
            arrays.update({f"gpma.{name}": array for name, array
                           in self._gpma.state_arrays().items()})
        return arrays

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray],
                    num_bins: int) -> "TileSortState":
        """The state :meth:`state_arrays` gave ``arrays`` of."""
        bins = np.array(arrays["bins"], dtype=np.int64)
        state = cls(bins, np.bincount(bins, minlength=num_bins),
                    GappedPMA(num_bins))
        gpma = {name[len("gpma."):]: array for name, array in arrays.items()
                if name.startswith("gpma.")}
        if gpma:
            state._gpma.load_state(gpma)
            state._built = True
        return state


@dataclass
class StepSortStats:
    """Per-step sorting statistics of one tile (or one rank when merged)."""

    moved_particles: int = 0
    local_rebuilds: int = 0
    global_sorts: int = 0
    total_slots: int = 0
    empty_slots: int = 0

    def merge(self, other: "StepSortStats") -> None:
        """Accumulate another tile's statistics."""
        self.moved_particles += other.moved_particles
        self.local_rebuilds += other.local_rebuilds
        self.global_sorts += other.global_sorts
        self.total_slots += other.total_slots
        self.empty_slots += other.empty_slots


class IncrementalSorter:
    """Maintains cell-sorted particle order with O(1) amortised updates."""

    # ------------------------------------------------------------------
    # global (per-tile) sort
    # ------------------------------------------------------------------
    def global_sort_tile(self, grid: Grid, tile: ParticleTile,
                         counters: Optional[KernelCounters] = None
                         ) -> StepSortStats:
        """Leave the tile's SoA arrays in cell order under a fresh state.

        A tile the migration regroup has just left in cell order hands
        over its cell ids (``tile.sorted_cells``) and their population
        per cell (``tile.sorted_population``), which are adopted as they
        are; any other tile is counting-sorted and permuted.  Either
        way the work charged is a counting sort and a GPMA build, though
        the build itself waits for the first incremental update
        (:class:`TileSortState`).  The tile is managed from then on
        (``tile.keeps_cell_order``).
        """
        n = tile.num_particles
        num_cells = tile.num_cells
        bins, population = tile.sorted_cells, tile.sorted_population
        if bins is None:
            bins = np.empty(0, dtype=np.int64)
            population = np.zeros(num_cells, dtype=np.int64)
            if n > 0:
                cell_ids = tile.local_cell_ids(grid)
                order, population = counting_sort_permutation(cell_ids,
                                                              num_cells)
                tile.permute(order)
                bins = cell_ids[order]
        state = TileSortState(bins, population, GappedPMA(num_cells))
        tile.sorter = state
        tile.keeps_cell_order = True

        capacity = state.fresh_capacity
        if counters is not None:
            sort = counters.phase("sort")
            sort.add(**counting_sort_work(n, num_cells))
            sort.add(scalar_ops=2.0 * capacity, bytes_near=8.0 * capacity)
        return StepSortStats(global_sorts=1, total_slots=capacity,
                             empty_slots=capacity - n)

    def ensure_tile_state(self, grid: Grid, tile: ParticleTile,
                          counters: Optional[KernelCounters] = None,
                          stats: Optional[StepSortStats] = None
                          ) -> TileSortState:
        """Return the tile's sort state, making a fresh one when there is none.

        The migration, an insert and ``permute`` drop the state of a
        tile whose population or storage order they change.  Such a tile gets a fresh state from
        :meth:`global_sort_tile` — adopting the regroup's cell ids where
        it left them — rather than the paper's Stage 1 insertions
        (§4.3.1) into its old GPMA.  The global sort's statistics are
        merged into ``stats``.
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
        if stats.global_sorts:
            # sorted a moment ago: this step's cells are on record and
            # nothing moved; a fresh structure is at least a fifth gaps
            # (GAP_FRACTION of each bin's population), far above the
            # reserve trigger, so there is nothing to rebuild either
            moved = 0
            update = GPMAUpdateStats()
            stats.total_slots = state.fresh_capacity
            stats.empty_slots = state.fresh_capacity - n
        else:
            gpma = state.gpma
            new_bins = tile.local_cell_ids(grid)
            movers = np.nonzero(new_bins != state.assigned_bins)[0]
            moved = int(movers.size)
            # Stage 2 of §4.3.1: deletions first (marking old slots
            # empty), then the pending-move insertions.
            update = gpma.apply_moves(movers, new_bins[movers])
            if gpma.overflow or gpma.needs_rebuild(REBUILD_EMPTY_RATIO):
                update.merge(gpma.build(new_bins))
            state.assigned_bins = new_bins
            stats.total_slots = gpma.capacity
            stats.empty_slots = gpma.num_empty_slots

        stats.moved_particles = moved
        stats.local_rebuilds = update.rebuilds
        if counters is not None:
            self._charge_incremental_work(counters, n, update, moved)
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
            return state.iteration_order()
        return None
