"""Tests (including property-based tests) for the Gapped Packed Memory Array."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gpma import GappedPMA

from sort_oracles import bin_of, check_invariants, particles_in_bin


def build_gpma(bins, num_bins=8, gap_fraction=0.25):
    gpma = GappedPMA(num_bins=num_bins, gap_fraction=gap_fraction)
    gpma.build(np.asarray(bins, dtype=np.int64))
    return gpma


class TestBuild:
    def test_empty_build(self):
        gpma = build_gpma([])
        assert gpma.num_particles == 0
        assert gpma.capacity >= gpma.num_bins  # min one gap slot per bin
        check_invariants(gpma)

    def test_basic_build(self):
        gpma = build_gpma([0, 0, 1, 3, 3, 3])
        assert gpma.num_particles == 6
        np.testing.assert_array_equal(gpma.bin_lengths,
                                      [2, 1, 0, 3, 0, 0, 0, 0])
        check_invariants(gpma)

    def test_iteration_order_is_cell_sorted(self):
        bins = [3, 0, 2, 0, 1, 3]
        gpma = build_gpma(bins)
        order = gpma.iteration_order()
        sorted_bins = np.asarray(bins)[order]
        assert np.all(np.diff(sorted_bins) >= 0)

    def test_particles_in_bin(self):
        gpma = build_gpma([2, 2, 5])
        np.testing.assert_array_equal(sorted(particles_in_bin(gpma, 2)), [0, 1])
        np.testing.assert_array_equal(particles_in_bin(gpma, 5), [2])
        assert particles_in_bin(gpma, 0).size == 0

    def test_bin_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_gpma([0, 9])
        gpma = build_gpma([0])
        with pytest.raises(IndexError):
            particles_in_bin(gpma, 42)

    def test_gap_fraction_creates_gaps(self):
        gpma = build_gpma([0] * 100, num_bins=2, gap_fraction=0.25)
        assert gpma.num_empty_slots >= 25
        assert gpma.empty_ratio > 0.0

    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError):
            GappedPMA(num_bins=0)
        with pytest.raises(ValueError):
            GappedPMA(num_bins=4, gap_fraction=1.0)


class TestUpdates:
    def test_delete_is_o1_and_consistent(self):
        gpma = build_gpma([0, 0, 1])
        stats = gpma.delete(0)
        assert stats.deletions == 1
        assert gpma.num_particles == 2
        assert bin_of(gpma, 0) is None
        assert 0 not in gpma.iteration_order()
        check_invariants(gpma)

    def test_delete_missing_particle_raises(self):
        gpma = build_gpma([0])
        with pytest.raises(KeyError):
            gpma.delete(99)

    def test_insert_into_gap(self):
        gpma = build_gpma([0, 0, 1])
        gpma.delete(2)
        stats = gpma.insert(2, 4)
        assert stats.insertions == 1
        assert bin_of(gpma, 2) == 4
        assert 2 in particles_in_bin(gpma, 4)
        check_invariants(gpma)

    def test_insert_duplicate_raises(self):
        gpma = build_gpma([0])
        with pytest.raises(KeyError):
            gpma.insert(0, 1)

    def test_move_between_bins(self):
        gpma = build_gpma([0, 1, 2, 3])
        gpma.delete(1)
        gpma.insert(1, 3)
        assert bin_of(gpma, 1) == 3
        np.testing.assert_array_equal(gpma.bin_lengths,
                                      [1, 0, 1, 2, 0, 0, 0, 0])
        check_invariants(gpma)

    def test_borrow_from_next_bin(self):
        # bin 0 packed full (gap_fraction 0 leaves every bin the minimum
        # single gap; fill it first)
        gpma = GappedPMA(num_bins=3, gap_fraction=0.0)
        gpma.build(np.array([0, 0, 1, 1]))
        # fill bin 0's single gap
        gpma.delete(3)
        gpma.insert(3, 0)
        # the next insertion into bin 0 must borrow from bin 1's region
        gpma.delete(2)
        stats = gpma.insert(2, 0)
        assert bin_of(gpma, 2) == 0
        assert len(gpma.overflow) == 0
        assert stats.borrow_shifts >= 0
        check_invariants(gpma)

    def test_overflow_when_no_gaps_anywhere(self):
        gpma = GappedPMA(num_bins=2, gap_fraction=0.0)
        gpma.build(np.array([0, 0, 1, 1]))
        gpma.insert(4, 0)           # fill each bin's one gap
        gpma.insert(5, 1)
        assert gpma.num_empty_slots == 0
        gpma.delete(0)
        gpma.insert(0, 0)           # reuses the freed slot
        with pytest.raises(KeyError):
            gpma.insert(0, 1)       # duplicate check still first
        gpma.delete(3)
        gpma.insert(3, 0)           # bin 1's freed slot cannot serve bin 0...
        # ... unless borrowed; the last bin has a gap so borrowing succeeded
        check_invariants(gpma)

    def test_needs_rebuild_on_overflow(self):
        gpma = GappedPMA(num_bins=2, gap_fraction=0.0)
        gpma.build(np.array([0, 1]))
        # force an overflow by inserting brand-new particle indices into
        # the last bin past its one gap: there is no next bin to borrow from
        gpma.insert(5, 1)
        assert not gpma.overflow
        gpma.insert(6, 1)
        assert len(gpma.overflow) == 1
        assert gpma.needs_rebuild()

    def test_rebuild_clears_overflow_and_counts(self):
        gpma = build_gpma([0, 1, 2])
        before = gpma.rebuild_count
        gpma.build(np.array([2, 2, 2]))
        assert gpma.rebuild_count == before + 1
        assert len(gpma.overflow) == 0
        check_invariants(gpma)


class TestGPMAProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=0, max_size=60))
    def test_build_preserves_population(self, bins):
        gpma = build_gpma(bins)
        check_invariants(gpma)
        assert gpma.num_particles == len(bins)
        expected = np.bincount(np.asarray(bins, dtype=int), minlength=8)
        np.testing.assert_array_equal(gpma.bin_lengths, expected)
        # every particle index appears exactly once
        order = np.sort(gpma.iteration_order())
        np.testing.assert_array_equal(order, np.arange(len(bins)))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=40),
        st.data(),
    )
    def test_random_moves_keep_invariants(self, bins, data):
        """Random delete/insert sequences never corrupt the structure."""
        gpma = build_gpma(bins)
        n = len(bins)
        moves = data.draw(st.lists(
            st.tuples(st.integers(min_value=0, max_value=n - 1),
                      st.integers(min_value=0, max_value=7)),
            min_size=0, max_size=20))
        current = {p: b for p, b in enumerate(bins)}
        for particle, new_bin in moves:
            gpma.delete(particle)
            gpma.insert(particle, new_bin)
            if gpma.overflow:
                gpma.build(np.array([current.get(i, 0) for i in range(n)]))
                current = {p: b for p, b in enumerate(
                    [current.get(i, 0) for i in range(n)])}
                continue
            current[particle] = new_bin
            check_invariants(gpma)
        # population matches the tracked assignment
        expected = np.bincount(np.array([current[i] for i in range(n)]),
                               minlength=8)
        if not gpma.overflow:
            np.testing.assert_array_equal(gpma.bin_lengths, expected)
