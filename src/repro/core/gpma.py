"""Gapped Packed Memory Array (GPMA) for per-tile particle indices.

The GPMA (§3.5 and §4.3.2 of the paper) keeps the indices of a tile's
particles grouped by cell ("bin") inside one flat array, with deliberate
gaps so that the frequent small updates caused by particles crossing cell
boundaries cost O(1) amortised.  Every piece of state is a flat int64
array, so a rebuild and a batch of moves are a fixed number of NumPy
passes with no Python-level loop over particles:

* ``local_index`` — the flat slot array; each slot holds a particle index
  into the tile's SoA arrays or ``INVALID_PARTICLE_ID`` for a gap,
* ``bin_offsets`` — the start slot of every bin's region (length
  ``num_bins + 1``),
* ``bin_lengths`` — valid particles per bin,
* ``_particle_slot`` / ``_particle_bin`` — the inverse map: slot and bin
  of every particle index, ``-1`` for an index that is not stored,
* ``_gap_stack`` — the per-bin empty-slot stacks, flattened: bin ``b``'s
  stack lives in ``_gap_stack[bin_offsets[b]:]``, bottom first, and is as
  deep as the bin has gaps (``region size - bin_lengths[b]``; every empty
  slot of a region is on its stack, so no separate depth is stored), and
* rebuild bookkeeping (the cumulative rebuild count).

Deleting a particle marks its slot invalid and pushes it onto its bin's
stack (O(1)).  Inserting first pops a gap from the target bin, then tries
to borrow the nearest gap from the following bin by shifting the elements
in between (bounded by the bin capacity), and finally falls back to a local
rebuild of the whole tile structure — exactly the three-level strategy of
§4.3.2.  Which slot a particle lands in fixes the within-bin iteration
order and with it the deposition kernel's summation order, so the order
in which the stacks hand out slots is part of the contract: lowest gap
first after a build, last freed first after deletes.
:meth:`GappedPMA.apply_moves` applies a whole step's moves at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.config import INVALID_PARTICLE_ID
from repro.pic.blocks import stable_order_by_bin

#: gaps a build gives each bin, as a share of its population (Appendix A)
GAP_FRACTION = 0.25
#: gaps a build gives each bin at least: an empty bin takes one arrival
MIN_GAP_SLOTS = 1
#: the arrays that are a structure's state, with its ``rebuild_count``
_STATE = ("local_index", "bin_offsets", "bin_lengths", "_particle_slot",
          "_particle_bin", "_gap_stack")


@dataclass
class GPMAUpdateStats:
    """Work performed by a batch of GPMA updates (fed to the cost model)."""

    deletions: int = 0
    insertions: int = 0
    borrow_shifts: int = 0
    rebuilds: int = 0
    rebuild_elements: int = 0

    def merge(self, other: "GPMAUpdateStats") -> None:
        """Accumulate another batch's work into this one."""
        self.deletions += other.deletions
        self.insertions += other.insertions
        self.borrow_shifts += other.borrow_shifts
        self.rebuilds += other.rebuilds
        self.rebuild_elements += other.rebuild_elements


class GappedPMA:
    """Cell-sorted particle-index array with gaps for O(1) updates."""

    def __init__(self, num_bins: int, gap_fraction: float = GAP_FRACTION):
        if num_bins <= 0:
            raise ValueError("num_bins must be positive")
        if not 0.0 <= gap_fraction < 1.0:
            raise ValueError("gap_fraction must lie in [0, 1)")
        self.num_bins = num_bins
        self.gap_fraction = gap_fraction

        self.local_index = np.empty(0, dtype=np.int64)
        self.bin_offsets = np.zeros(num_bins + 1, dtype=np.int64)
        self.bin_lengths = np.zeros(num_bins, dtype=np.int64)
        self._particle_slot = np.empty(0, dtype=np.int64)
        self._particle_bin = np.empty(0, dtype=np.int64)
        self._gap_stack = np.empty(0, dtype=np.int64)

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
        :data:`MIN_GAP_SLOTS`) are appended to every bin region.  Particles
        keep their index order within a bin (``slot = bin_offsets[bin] +
        rank within bin``).
        """
        particle_bins = np.array(particle_bins, dtype=np.int64)
        if particle_bins.size and (
            particle_bins.min() < 0 or particle_bins.max() >= self.num_bins
        ):
            raise ValueError("particle bin out of range")

        order, sorted_bins, rank, counts = self._rank_within_bin(particle_bins)
        region_sizes = self.region_sizes(counts)
        self.bin_offsets = np.zeros(self.num_bins + 1, dtype=np.int64)
        np.cumsum(region_sizes, out=self.bin_offsets[1:])
        capacity = int(self.bin_offsets[-1])

        slots = self.bin_offsets[sorted_bins] + rank
        self.local_index = np.full(capacity, INVALID_PARTICLE_ID, dtype=np.int64)
        self.local_index[slots] = order
        self.bin_lengths = counts
        self._particle_slot = np.empty(particle_bins.size, dtype=np.int64)
        self._particle_slot[order] = slots
        self._particle_bin = particle_bins
        # Every region's stack is written as if the whole region were gaps,
        # highest slot at the bottom: position j of bin b holds slot
        # end_b - 1 - j.  Only the first gaps[b] positions are live, which
        # are exactly the trailing gaps, and pops hand out the lowest first.
        self._gap_stack = (
            np.repeat(self.bin_offsets[:-1] + self.bin_offsets[1:] - 1,
                      region_sizes)
            - np.arange(capacity, dtype=np.int64)
        )

        self.num_particles = int(particle_bins.size)
        self.num_empty_slots = capacity - self.num_particles
        self.overflow = []
        self.rebuild_count += 1
        return GPMAUpdateStats(rebuilds=1, rebuild_elements=capacity)

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Copies of the structure between batches (``overflow`` is empty
        then), for a snapshot."""
        arrays = {name: getattr(self, name).copy() for name in _STATE}
        arrays["rebuild_count"] = np.array([self.rebuild_count])
        return arrays

    def load_state(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Become the structure :meth:`state_arrays` gave ``arrays`` of."""
        for name in _STATE:
            setattr(self, name, np.array(arrays[name], dtype=np.int64))
        self.rebuild_count = int(arrays["rebuild_count"][0])
        self.num_particles = int(self.bin_lengths.sum())
        self.num_empty_slots = self.capacity - self.num_particles
        self.overflow = []

    def region_sizes(self, counts: np.ndarray) -> np.ndarray:
        """Slots of every bin's region in a build with ``counts`` particles
        per bin: the one capacity formula.

        Each bin's population plus ``gap_fraction`` of it as gaps, at
        least :data:`MIN_GAP_SLOTS`.
        """
        gaps = np.maximum(np.ceil(counts * self.gap_fraction).astype(np.int64),
                          MIN_GAP_SLOTS)
        return counts + gaps

    def _rank_within_bin(self, bins: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                    np.ndarray]:
        """Group a batch by bin, keeping batch order inside each bin.

        Returns the stable permutation ``order``, ``bins[order]``, the
        position of every sorted element within its bin's group, and the
        group sizes (length ``num_bins``).
        """
        order = stable_order_by_bin(bins, self.num_bins)
        sorted_bins = bins[order]
        counts = np.bincount(bins, minlength=self.num_bins)
        group_starts = np.cumsum(counts) - counts
        rank = np.arange(bins.size, dtype=np.int64) - group_starts[sorted_bins]
        return order, sorted_bins, rank, counts

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Total number of slots (valid + gaps)."""
        return int(self.local_index.shape[0])

    @property
    def empty_ratio(self) -> float:
        """Fraction of slots that are gaps (0 for no slots)."""
        capacity = self.capacity
        return self.num_empty_slots / capacity if capacity else 0.0

    @property
    def fill_ratio(self) -> float:
        """Fraction of slots that hold particles."""
        return 1.0 - self.empty_ratio

    def _slot_of(self, particle: int) -> int:
        """Slot storing ``particle``, -1 when it is not stored."""
        if not 0 <= particle < self._particle_slot.size:
            return -1
        return int(self._particle_slot[particle])

    def _gap_counts(self) -> np.ndarray:
        """Depth of every bin's gap stack."""
        return np.diff(self.bin_offsets) - self.bin_lengths

    def _gap_count(self, b: int) -> int:
        return int(self.bin_offsets[b + 1] - self.bin_offsets[b]
                   - self.bin_lengths[b])

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
        slot = self._slot_of(particle)
        if slot < 0:
            raise KeyError(f"particle {particle} is not stored in the GPMA")
        b = int(self._particle_bin[particle])
        self._particle_slot[particle] = -1
        self._particle_bin[particle] = -1
        self.local_index[slot] = INVALID_PARTICLE_ID
        self._gap_stack[self.bin_offsets[b] + self._gap_count(b)] = slot
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
        if particle < 0:
            raise IndexError("particle index must be non-negative")
        if not 0 <= b < self.num_bins:
            raise IndexError(f"bin {b} out of range")
        if self._slot_of(particle) >= 0:
            raise KeyError(f"particle {particle} is already stored")
        stats = GPMAUpdateStats(insertions=1)

        gaps = self._gap_count(b)
        if gaps:
            slot = int(self._gap_stack[self.bin_offsets[b] + gaps - 1])
            self._place(particle, b, slot)
            return stats

        shifts = self._borrow_from_next(particle, b)
        if shifts is not None:
            stats.borrow_shifts += shifts
            return stats

        self.overflow.append((particle, b))
        return stats

    def _place(self, particle: int, b: int, slot: int) -> None:
        size = self._particle_slot.size
        if particle >= size:
            # an index beyond the last build: grow the inverse maps
            grown = np.full(max(particle + 1, 2 * size) - size, -1,
                            dtype=np.int64)
            self._particle_slot = np.concatenate([self._particle_slot, grown])
            self._particle_bin = np.concatenate([self._particle_bin, grown])
        self.local_index[slot] = particle
        self._particle_slot[particle] = slot
        self._particle_bin[particle] = b
        self.bin_lengths[b] += 1
        self.num_particles += 1
        self.num_empty_slots -= 1

    def _borrow_from_next(self, particle: int, b: int) -> Optional[int]:
        """Borrow a gap from bin ``b + 1``; returns the shift count or None."""
        nxt = b + 1
        if nxt >= self.num_bins:
            return None
        gaps = self._gap_count(nxt)
        if gaps == 0:
            return None
        boundary = int(self.bin_offsets[nxt])
        stack = self._gap_stack[boundary: boundary + gaps]
        # take the lowest gap of the next bin so the shifted block is minimal
        lowest = int(np.argmin(stack))
        gap_slot = int(stack[lowest])
        remaining = np.delete(stack, lowest)

        # Shift [boundary, gap_slot) one slot to the right.  Every empty slot
        # of a region is on its stack and gap_slot is the lowest of them, so
        # the block holds particles only and no remaining gap moves.
        block = self.local_index[boundary: gap_slot].copy()
        self.local_index[boundary + 1: gap_slot + 1] = block
        self._particle_slot[block] += 1
        # the boundary slot now belongs to bin b, and the next bin's stack
        # storage starts one slot later with it
        self.bin_offsets[nxt] += 1
        self._gap_stack[boundary + 1: boundary + gaps] = remaining
        self._place(particle, b, boundary)
        return gap_slot - boundary

    def apply_moves(self, particles: np.ndarray, new_bins: np.ndarray
                    ) -> GPMAUpdateStats:
        """Move ``particles[i]`` to bin ``new_bins[i]``, for a whole batch.

        Equivalent to deleting every particle of the batch in order and
        then inserting them in order (Stage 2 of §4.3.1), with the same
        resulting structure and the same work totals.  All deletions are
        one vectorised pass.  When every target bin holds enough gaps
        after the deletions no insertion can borrow, bins do not interact,
        and the insertions are one vectorised pass too; otherwise they run
        one by one through :meth:`insert`, whose borrows depend on order.
        """
        particles = np.asarray(particles, dtype=np.int64)
        new_bins = np.asarray(new_bins, dtype=np.int64)
        if particles.ndim != 1 or particles.shape != new_bins.shape:
            raise ValueError("particles and new_bins must be equal-length "
                             "1-D arrays")
        moves = int(particles.size)
        stats = GPMAUpdateStats()
        if moves == 0:
            return stats
        if new_bins.min() < 0 or new_bins.max() >= self.num_bins:
            raise IndexError("target bin out of range")
        if particles.min() < 0 or particles.max() >= self._particle_slot.size:
            raise KeyError("a particle of the batch is not stored in the GPMA")
        slots = self._particle_slot[particles]
        if slots.min() < 0:
            raise KeyError("a particle of the batch is not stored in the GPMA")
        if np.bincount(particles).max() > 1:
            raise KeyError("a particle appears twice in the batch")

        # deletions: mark the slots empty and push them, in batch order,
        # onto their bins' stacks
        order, old_bins, rank, freed = self._rank_within_bin(
            self._particle_bin[particles])
        self._gap_stack[self.bin_offsets[old_bins]
                        + self._gap_counts()[old_bins] + rank] = slots[order]
        self.local_index[slots] = INVALID_PARTICLE_ID
        self._particle_slot[particles] = -1
        self._particle_bin[particles] = -1
        self.bin_lengths -= freed
        self.num_particles -= moves
        self.num_empty_slots += moves
        stats.deletions = moves

        order, target_bins, rank, wanted = self._rank_within_bin(new_bins)
        gap_counts = self._gap_counts()
        if np.any(wanted > gap_counts):
            for particle, b in zip(particles.tolist(), new_bins.tolist()):
                stats.merge(self.insert(particle, b))
            return stats

        # insertions: the j-th arrival of a bin pops the j-th slot from the
        # top of its stack
        slots = self._gap_stack[self.bin_offsets[target_bins]
                                + gap_counts[target_bins] - 1 - rank]
        arrivals = particles[order]
        self.local_index[slots] = arrivals
        self._particle_slot[arrivals] = slots
        self._particle_bin[arrivals] = target_bins
        self.bin_lengths += wanted
        self.num_particles += moves
        self.num_empty_slots -= moves
        stats.insertions = moves
        return stats

    # ------------------------------------------------------------------
    def needs_rebuild(self, empty_ratio_threshold: float = 0.02) -> bool:
        """Whether the structure requires a local rebuild (paper triggers).

        A rebuild is mandatory when overflow particles exist, or optional
        when a structure holding particles has a gap reserve below
        ``empty_ratio_threshold`` of its slots.
        """
        if self.overflow:
            return True
        return self.empty_ratio < empty_ratio_threshold \
            and self.num_particles > 0
