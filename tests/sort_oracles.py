"""Scalar reference implementations of the sorter's building blocks.

These are the per-particle Python implementations ``repro.core`` shipped
before its sort path became array-native: the loop counting sort and the
``GappedPMA`` that kept its inverse maps in two dicts and its gap stacks
in per-bin lists.  They are slow and obviously right, and exist only as
oracles for ``tests/test_sort_differential.py`` — the array-native code
must reproduce their permutation, slot assignment, gap hand-out order
and ``GPMAUpdateStats`` exactly, because within-bin order feeds the
deposition kernel's summation order.

:class:`OracleIncrementalSorter` is the sorter as it stood before the
migration regroup handed it cell ids: every fresh sort state recomputes
the tile's cells, counting-sorts and permutes the tile and builds its
GPMA at once.  A session run with it must equal one run with
``IncrementalSorter`` bit for bit, counters and statistics included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import INVALID_PARTICLE_ID
from repro.core.counting_sort import counting_sort_permutation, counting_sort_work
from repro.core.gpma import GappedPMA, GPMAUpdateStats
from repro.core.incremental_sort import REBUILD_EMPTY_RATIO, StepSortStats
from repro.hardware.counters import KernelCounters
from repro.pic.grid import Grid
from repro.pic.particles import ParticleTile


def oracle_counting_sort_permutation(cell_ids: np.ndarray, num_cells: int
                                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Stable counting-sort permutation and per-cell counts, by placement loop."""
    cell_ids = np.asarray(cell_ids, dtype=np.int64)
    if num_cells <= 0:
        raise ValueError("num_cells must be positive")
    if cell_ids.size and (cell_ids.min() < 0 or cell_ids.max() >= num_cells):
        raise ValueError("cell id out of range for counting sort")

    counts = np.bincount(cell_ids, minlength=num_cells)
    starts = np.zeros(num_cells + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])

    order = np.empty(cell_ids.size, dtype=np.int64)
    cursor = starts[:-1].copy()
    # stable placement: iterate particles in storage order
    for i, cell in enumerate(cell_ids):
        order[cursor[cell]] = i
        cursor[cell] += 1
    return order, counts.astype(np.int64)


def bin_of(gpma: GappedPMA, particle: int) -> Optional[int]:
    """The bin whose region holds ``particle`` in ``gpma``, None if absent
    (read off ``local_index`` and ``bin_offsets``)."""
    slots = np.flatnonzero(gpma.local_index == int(particle))
    if slots.size == 0:
        return None
    return int(np.searchsorted(gpma.bin_offsets, slots[0], side="right")) - 1


def particles_in_bin(gpma: GappedPMA, b: int) -> np.ndarray:
    """Particle indices ``gpma`` stores in bin ``b``, in slot order."""
    if not 0 <= b < gpma.num_bins:
        raise IndexError(f"bin {b} out of range")
    region = gpma.local_index[gpma.bin_offsets[b]:gpma.bin_offsets[b + 1]]
    return region[region != INVALID_PARTICLE_ID]


def check_invariants(gpma: GappedPMA) -> None:
    """Raise AssertionError if ``gpma``'s bookkeeping is inconsistent."""
    capacity = gpma.capacity
    region_sizes = np.diff(gpma.bin_offsets)
    assert gpma.bin_offsets[0] == 0 and gpma.bin_offsets[-1] == capacity, \
        "bin regions do not tile the slot array"
    assert np.all(region_sizes >= 0), "bin offsets are not monotone"
    slot_bin = np.repeat(np.arange(gpma.num_bins), region_sizes)

    valid = gpma.local_index != INVALID_PARTICLE_ID
    assert int(valid.sum()) == gpma.num_particles, "particle count mismatch"
    assert capacity - gpma.num_particles == gpma.num_empty_slots, \
        "empty-slot count mismatch"
    np.testing.assert_array_equal(
        np.bincount(slot_bin[valid], minlength=gpma.num_bins),
        gpma.bin_lengths, err_msg="bin length mismatch")

    # inverse maps <-> local_index round trip
    stored_slots = np.nonzero(valid)[0]
    stored = gpma.local_index[stored_slots]
    assert stored.size == 0 or (
        stored.min() >= 0 and stored.max() < gpma._particle_slot.size), \
        "stored particle index outside the inverse maps"
    np.testing.assert_array_equal(
        gpma._particle_slot[stored], stored_slots,
        err_msg="particle slot mismatch")
    np.testing.assert_array_equal(
        gpma._particle_bin[stored], slot_bin[stored_slots],
        err_msg="particle bin mismatch")
    assert int((gpma._particle_slot >= 0).sum()) == gpma.num_particles, \
        "inverse map lists a particle that is not stored"
    np.testing.assert_array_equal(
        gpma._particle_slot >= 0, gpma._particle_bin >= 0,
        err_msg="slot and bin maps disagree on which particles are stored")

    # gap stacks: bin b's live entries are its region's empty slots,
    # each exactly once (the depth equals the number of empty slots, so
    # distinct + empty + inside the region means all of them)
    gap_counts = gpma._gap_counts()
    assert np.all(gap_counts >= 0), "bin holds more particles than slots"
    depth = np.arange(capacity) - gpma.bin_offsets[:-1][slot_bin]
    live = depth < gap_counts[slot_bin]
    stacked = gpma._gap_stack[live]
    assert stacked.size == 0 or (
        stacked.min() >= 0 and stacked.max() < capacity), \
        "stacked gap outside the slot array"
    assert np.all(gpma.local_index[stacked] == INVALID_PARTICLE_ID), \
        "a stacked slot is not empty"
    np.testing.assert_array_equal(
        slot_bin[stacked], slot_bin[live],
        err_msg="a stacked slot lies outside its bin's region")
    assert np.unique(stacked).size == stacked.size, \
        "a slot is stacked twice"


class OracleGappedPMA:
    """The dict/list GappedPMA as it stood before the array-native rewrite."""

    def __init__(self, num_bins: int, gap_fraction: float = 0.25):
        if num_bins <= 0:
            raise ValueError("num_bins must be positive")
        if not 0.0 <= gap_fraction < 1.0:
            raise ValueError("gap_fraction must lie in [0, 1)")
        self.num_bins = num_bins
        self.gap_fraction = gap_fraction

        self.local_index = np.empty(0, dtype=np.int64)
        self.bin_offsets = np.zeros(num_bins + 1, dtype=np.int64)
        self.bin_lengths = np.zeros(num_bins, dtype=np.int64)
        self._empty_slots: Dict[int, List[int]] = {b: [] for b in range(num_bins)}
        #: bin assignment of every particle index currently stored
        self._particle_bin: Dict[int, int] = {}
        #: slot of every particle index currently stored
        self._particle_slot: Dict[int, int] = {}

        self.num_particles = 0
        self.num_empty_slots = 0
        self.rebuild_count = 0
        self.overflow: List[tuple[int, int]] = []

    # ------------------------------------------------------------------
    # construction / rebuild
    # ------------------------------------------------------------------
    def build(self, particle_bins: np.ndarray) -> GPMAUpdateStats:
        """(Re)build the structure from the bin of every particle index.

        ``particle_bins[i]`` is the bin (tile-local cell id) of particle
        ``i``.  Gaps of ``gap_fraction`` of each bin's population (at least
        one) are appended to every bin region.
        """
        particle_bins = np.asarray(particle_bins, dtype=np.int64)
        if particle_bins.size and (
            particle_bins.min() < 0 or particle_bins.max() >= self.num_bins
        ):
            raise ValueError("particle bin out of range")

        counts = np.bincount(particle_bins, minlength=self.num_bins)
        gaps = np.maximum(
            np.ceil(counts * self.gap_fraction).astype(np.int64), 1)
        region_sizes = counts + gaps
        self.bin_offsets = np.zeros(self.num_bins + 1, dtype=np.int64)
        np.cumsum(region_sizes, out=self.bin_offsets[1:])
        capacity = int(self.bin_offsets[-1])

        self.local_index = np.full(capacity, INVALID_PARTICLE_ID, dtype=np.int64)
        self.bin_lengths = counts.astype(np.int64).copy()
        self._empty_slots = {b: [] for b in range(self.num_bins)}
        self._particle_bin = {}
        self._particle_slot = {}

        # place particles bin by bin, preserving their index order
        order = np.argsort(particle_bins, kind="stable")
        fill_cursor = self.bin_offsets[:-1].copy()
        for particle in order:
            b = int(particle_bins[particle])
            slot = int(fill_cursor[b])
            self.local_index[slot] = particle
            self._particle_bin[int(particle)] = b
            self._particle_slot[int(particle)] = slot
            fill_cursor[b] += 1
        # the remaining slots of each region are gaps
        for b in range(self.num_bins):
            start = int(fill_cursor[b])
            end = int(self.bin_offsets[b + 1])
            # push in reverse so that pops hand out the lowest slots first
            self._empty_slots[b] = list(range(end - 1, start - 1, -1))

        self.num_particles = int(particle_bins.size)
        self.num_empty_slots = capacity - self.num_particles
        self.overflow = []
        self.rebuild_count += 1
        return GPMAUpdateStats(rebuilds=1, rebuild_elements=capacity)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Total number of slots (valid + gaps)."""
        return int(self.local_index.shape[0])

    @property
    def empty_ratio(self) -> float:
        """Fraction of slots that are gaps."""
        if self.capacity == 0:
            return 0.0
        return self.num_empty_slots / self.capacity

    def bin_of(self, particle: int) -> Optional[int]:
        """Bin currently storing ``particle`` or None if absent."""
        return self._particle_bin.get(int(particle))

    def iteration_order(self) -> np.ndarray:
        """All stored particle indices in cell-sorted order."""
        valid = self.local_index != INVALID_PARTICLE_ID
        return self.local_index[valid]

    # ------------------------------------------------------------------
    # O(1) updates
    # ------------------------------------------------------------------
    def delete(self, particle: int) -> GPMAUpdateStats:
        """Remove a particle from its bin (O(1))."""
        particle = int(particle)
        if particle not in self._particle_slot:
            raise KeyError(f"particle {particle} is not stored in the GPMA")
        slot = self._particle_slot.pop(particle)
        b = self._particle_bin.pop(particle)
        self.local_index[slot] = INVALID_PARTICLE_ID
        self._empty_slots[b].append(slot)
        self.bin_lengths[b] -= 1
        self.num_particles -= 1
        self.num_empty_slots += 1
        return GPMAUpdateStats(deletions=1)

    def insert(self, particle: int, b: int) -> GPMAUpdateStats:
        """Insert a particle into bin ``b``.

        Strategy (paper §4.3.2): pop a gap of the bin itself, otherwise
        borrow the nearest gap from the next bin by shifting the elements in
        between, otherwise record the particle as overflow (the caller is
        expected to trigger a rebuild).
        """
        particle = int(particle)
        if not 0 <= b < self.num_bins:
            raise IndexError(f"bin {b} out of range")
        if particle in self._particle_slot:
            raise KeyError(f"particle {particle} is already stored")
        stats = GPMAUpdateStats(insertions=1)

        if self._empty_slots[b]:
            slot = self._empty_slots[b].pop()
            self._place(particle, b, slot)
            return stats

        shifts = self._borrow_from_next(particle, b)
        if shifts is not None:
            stats.borrow_shifts += shifts
            return stats

        self.overflow.append((particle, b))
        return stats

    def apply_moves(self, particles, new_bins) -> GPMAUpdateStats:
        """The loop ``incremental_update_tile`` ran: delete all, insert all."""
        update = GPMAUpdateStats()
        for p in particles:
            update.merge(self.delete(int(p)))
        for p, b in zip(particles, new_bins):
            update.merge(self.insert(int(p), int(b)))
        return update

    def _place(self, particle: int, b: int, slot: int) -> None:
        self.local_index[slot] = particle
        self._particle_slot[particle] = slot
        self._particle_bin[particle] = b
        self.bin_lengths[b] += 1
        self.num_particles += 1
        self.num_empty_slots -= 1

    def _borrow_from_next(self, particle: int, b: int) -> Optional[int]:
        """Borrow a gap from bin ``b + 1``; returns the shift count or None."""
        nxt = b + 1
        if nxt >= self.num_bins or not self._empty_slots[nxt]:
            return None
        # take the lowest gap of the next bin so the shifted block is minimal
        gap_slot = min(self._empty_slots[nxt])
        self._empty_slots[nxt].remove(gap_slot)

        boundary = int(self.bin_offsets[nxt])
        # shift [boundary, gap_slot) one slot to the right
        shifted = 0
        for slot in range(gap_slot, boundary, -1):
            moved = self.local_index[slot - 1]
            self.local_index[slot] = moved
            if moved != INVALID_PARTICLE_ID:
                self._particle_slot[int(moved)] = slot
            shifted += 1
        # the boundary slot now belongs to bin b
        self.bin_offsets[nxt] += 1
        # gaps of the next bin that sat inside the shifted range move right
        self._empty_slots[nxt] = [
            s + 1 if boundary <= s < gap_slot else s for s in self._empty_slots[nxt]
        ]
        self._place(particle, b, boundary)
        return shifted

    # ------------------------------------------------------------------
    def needs_rebuild(self, empty_ratio_threshold: float = 0.02) -> bool:
        """Whether the structure requires a local rebuild (paper triggers).

        A rebuild is mandatory when overflow particles exist, or optional
        when the gap reserve dropped below ``empty_ratio_threshold``.
        """
        if self.overflow:
            return True
        return self.empty_ratio < empty_ratio_threshold and self.num_particles > 0

    def check_invariants(self) -> None:
        """Raise AssertionError if internal bookkeeping is inconsistent.

        Used by the test suite and by property-based tests; not called on
        the hot path.
        """
        valid = self.local_index != INVALID_PARTICLE_ID
        assert int(valid.sum()) == self.num_particles, "particle count mismatch"
        assert self.capacity - self.num_particles == self.num_empty_slots, \
            "empty-slot count mismatch"
        for b in range(self.num_bins):
            region = self.local_index[self.bin_offsets[b]: self.bin_offsets[b + 1]]
            stored = region[region != INVALID_PARTICLE_ID]
            assert stored.size == self.bin_lengths[b], f"bin {b} length mismatch"
            for particle in stored:
                assert self._particle_bin[int(particle)] == b, \
                    f"particle {particle} bin mismatch"
        for b, stack in self._empty_slots.items():
            for slot in stack:
                assert self.local_index[slot] == INVALID_PARTICLE_ID, \
                    f"slot {slot} on bin {b}'s stack is not empty"
                assert self.bin_offsets[b] <= slot < self.bin_offsets[b + 1], \
                    f"slot {slot} on bin {b}'s stack lies outside its region"


@dataclass
class OracleTileSortState:
    """The eager sort state: a built GPMA and the bins it holds."""

    gpma: GappedPMA
    assigned_bins: np.ndarray

    @property
    def num_particles(self) -> int:
        """Particles tracked by this state."""
        return int(self.assigned_bins.shape[0])


class OracleIncrementalSorter:
    """``IncrementalSorter`` with the recompute path on every fresh state.

    It never marks a tile as kept in cell order, so the migration regroup
    leaves its tiles in storage order and hands over no cell ids.
    """

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
        gpma = GappedPMA(num_cells)
        build_stats = gpma.build(bins)
        # a freshly built structure does not count towards the rebuild trigger
        gpma.rebuild_count = 0
        tile.sorter = OracleTileSortState(gpma=gpma, assigned_bins=bins)

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
                          ) -> OracleTileSortState:
        """Return the tile's sort state, rebuilding it from scratch when stale."""
        state = tile.sorter
        if (isinstance(state, OracleTileSortState)
                and state.num_particles == tile.num_particles):
            return state
        rebuild = self.global_sort_tile(grid, tile, counters)
        if stats is not None:
            stats.merge(rebuild)
        return tile.sorter

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

        # a tile sorted a moment ago has this step's cells on record already
        new_bins = (state.assigned_bins if stats.global_sorts
                    else tile.local_cell_ids(grid))
        moved = np.nonzero(new_bins != state.assigned_bins)[0]
        stats.moved_particles = int(moved.size)

        update = gpma.apply_moves(moved, new_bins[moved])

        if gpma.overflow or gpma.needs_rebuild(REBUILD_EMPTY_RATIO):
            rebuild = gpma.build(new_bins)
            update.merge(rebuild)
            stats.local_rebuilds += 1

        state.assigned_bins = new_bins
        stats.total_slots = gpma.capacity
        stats.empty_slots = gpma.num_empty_slots

        if counters is not None:
            sort = counters.phase("sort")
            lanes = 8.0
            sort.add(vpu_alu=2.0 * n / lanes, bytes_near=8.0 * n)
            sort.add(scalar_ops=8.0 * (update.deletions + update.insertions),
                     bytes_near=32.0 * moved.size)
            sort.add(scalar_ops=2.0 * update.borrow_shifts
                     + 2.0 * update.rebuild_elements,
                     bytes_near=8.0 * update.borrow_shifts
                     + 16.0 * update.rebuild_elements)
        return stats

    @staticmethod
    def iteration_order(tile: ParticleTile) -> Optional[np.ndarray]:
        """Cell-sorted particle order of a tile, or None when unsorted."""
        state = tile.sorter
        if isinstance(state, OracleTileSortState):
            return state.gpma.iteration_order()
        return None
