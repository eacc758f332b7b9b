"""Tests for counting sort, the incremental sorter and the global sort policy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GridConfig, SortingPolicyConfig, SpeciesConfig
from repro.core.counting_sort import counting_sort_permutation, counting_sort_work
from repro.core.incremental_sort import IncrementalSorter, TileSortState
from repro.core.sort_policy import GlobalSortPolicy, RankSortStats
from repro.hardware.counters import KernelCounters
from repro.pic.grid import Grid
from repro.pic.particles import ParticleContainer
from repro.pic.plasma import load_uniform_plasma


class TestCountingSort:
    def test_sorts_by_cell(self):
        cells = np.array([3, 1, 2, 1, 0])
        order, counts = counting_sort_permutation(cells, 4)
        assert np.all(np.diff(cells[order]) >= 0)
        np.testing.assert_array_equal(counts, [1, 2, 1, 1])

    def test_stability(self):
        cells = np.array([1, 1, 1])
        order, _ = counting_sort_permutation(cells, 2)
        np.testing.assert_array_equal(order, [0, 1, 2])

    def test_empty_input(self):
        order, counts = counting_sort_permutation(np.array([], dtype=int), 4)
        assert order.size == 0
        np.testing.assert_array_equal(counts, [0, 0, 0, 0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            counting_sort_permutation(np.array([5]), 4)
        with pytest.raises(ValueError):
            counting_sort_permutation(np.array([0]), 0)

    def test_work_estimate_positive(self):
        work = counting_sort_work(1000, 64)
        assert work["scalar_ops"] > 0
        assert work["bytes_far"] > 0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=15), min_size=0, max_size=80))
    def test_permutation_property(self, cells):
        cells = np.asarray(cells, dtype=int)
        order, counts = counting_sort_permutation(cells, 16)
        assert np.sort(order).tolist() == list(range(len(cells)))
        assert counts.sum() == len(cells)
        assert np.all(np.diff(cells[order]) >= 0)


class TestSortPolicy:
    def _stats(self, **kwargs):
        defaults = dict(steps_since_sort=20, local_rebuilds=0, total_slots=1000,
                        empty_slots=300, last_throughput=100.0,
                        baseline_throughput=100.0)
        defaults.update(kwargs)
        stats = RankSortStats()
        for key, value in defaults.items():
            setattr(stats, key, value)
        return stats

    def test_minimum_interval_vetoes(self):
        policy = GlobalSortPolicy(SortingPolicyConfig(min_sort_interval=10))
        assert not policy.should_sort(self._stats(steps_since_sort=5,
                                                  local_rebuilds=10**6))

    def test_fixed_interval_triggers(self):
        policy = GlobalSortPolicy(SortingPolicyConfig(sort_interval=50))
        assert policy.should_sort(self._stats(steps_since_sort=50))
        assert policy.last_trigger == "fixed_interval"

    def test_rebuild_count_triggers(self):
        policy = GlobalSortPolicy(SortingPolicyConfig(sort_trigger_rebuild_count=10))
        assert policy.should_sort(self._stats(local_rebuilds=10))
        assert policy.last_trigger == "rebuild_count"

    def test_empty_ratio_triggers(self):
        policy = GlobalSortPolicy(SortingPolicyConfig(sort_trigger_empty_ratio=0.15))
        assert policy.should_sort(self._stats(empty_slots=50))
        assert policy.last_trigger == "empty_ratio"

    def test_sparse_ratio_triggers(self):
        policy = GlobalSortPolicy(SortingPolicyConfig(sort_trigger_full_ratio=0.85))
        assert policy.should_sort(self._stats(empty_slots=900))
        assert policy.last_trigger == "sparse_ratio"

    def test_perf_degradation_triggers(self):
        policy = GlobalSortPolicy(SortingPolicyConfig(sort_trigger_perf_degrad=0.8))
        assert policy.should_sort(self._stats(last_throughput=50.0))
        assert policy.last_trigger == "perf_degradation"

    def test_perf_trigger_can_be_disabled(self):
        policy = GlobalSortPolicy(
            SortingPolicyConfig(sort_trigger_perf_enable=False))
        assert not policy.should_sort(self._stats(last_throughput=50.0))

    def test_healthy_state_does_not_trigger(self):
        policy = GlobalSortPolicy()
        assert not policy.should_sort(self._stats())

    def test_ratio_trigger_boundaries(self):
        """Pin the slot-ratio semantics: both triggers compare the *empty*
        fraction against its bound with a strict inequality (the
        ``sort_trigger_full_ratio`` bound fires when the structure became
        sparse, not when occupancy is high)."""
        policy = GlobalSortPolicy(SortingPolicyConfig(
            sort_trigger_empty_ratio=0.15, sort_trigger_full_ratio=0.85))
        # exactly at either bound: no trigger (strict comparisons)
        assert not policy.should_sort(self._stats(empty_slots=150))
        assert not policy.should_sort(self._stats(empty_slots=850))
        # just below the empty bound: gap reserve exhausted -> empty_ratio
        assert policy.should_sort(self._stats(empty_slots=149))
        assert policy.last_trigger == "empty_ratio"
        # just above the full bound: mostly gaps -> sparse_ratio
        assert policy.should_sort(self._stats(empty_slots=851))
        assert policy.last_trigger == "sparse_ratio"

    def test_fill_ratio_is_complement_of_empty_ratio(self):
        stats = self._stats(total_slots=1000, empty_slots=300)
        assert stats.empty_ratio == pytest.approx(0.3)
        assert stats.fill_ratio == pytest.approx(0.7)
        # degenerate rank with no slots: defined as fully filled, no trigger
        empty = RankSortStats()
        assert empty.empty_ratio == 0.0
        assert empty.fill_ratio == 1.0

    def test_rank_stats_record_and_reset(self):
        stats = RankSortStats()
        stats.record_step(rebuilds=2, moved=10, total_slots=100, empty_slots=30,
                          throughput=5.0)
        stats.record_step(rebuilds=1, moved=5, total_slots=100, empty_slots=25,
                          throughput=4.0)
        assert stats.steps_since_sort == 2
        assert stats.local_rebuilds == 3
        assert stats.baseline_throughput == 5.0
        stats.reset()
        assert stats.steps_since_sort == 0
        assert stats.baseline_throughput == 4.0


def make_tiled_plasma():
    config = GridConfig(n_cell=(8, 8, 8), hi=(8.0e-6,) * 3, tile_size=(4, 4, 4))
    grid = Grid(config)
    species = SpeciesConfig(ppc=(2, 2, 2))
    container = ParticleContainer(config, species)
    load_uniform_plasma(grid, container, species, np.random.default_rng(3))
    return grid, container


class TestIncrementalSorter:
    def test_global_sort_establishes_cell_order(self):
        grid, container = make_tiled_plasma()
        sorter = IncrementalSorter()
        tile = container.nonempty_tiles()[0]
        rng = np.random.default_rng(0)
        tile.permute(rng.permutation(tile.num_particles))
        sorter.global_sort_tile(grid, tile)
        cells = tile.local_cell_ids(grid)
        assert np.all(np.diff(cells) >= 0)
        assert isinstance(tile.sorter, TileSortState)
        tile.sorter.gpma.check_invariants()

    def test_iteration_order_matches_gpma(self):
        grid, container = make_tiled_plasma()
        sorter = IncrementalSorter()
        tile = container.nonempty_tiles()[0]
        sorter.global_sort_tile(grid, tile)
        order = sorter.iteration_order(tile)
        cells = tile.local_cell_ids(grid)[order]
        assert np.all(np.diff(cells) >= 0)
        assert np.sort(order).tolist() == list(range(tile.num_particles))

    def test_incremental_update_tracks_moved_particles(self):
        grid, container = make_tiled_plasma()
        sorter = IncrementalSorter()
        tile = container.nonempty_tiles()[0]
        sorter.global_sort_tile(grid, tile)
        # move one particle into a different cell of the same tile
        dx = grid.cell_size[0]
        target = 0
        tile.x[target] = (tile.x[target] + 1.5 * dx) % (grid.hi[0] - grid.lo[0])
        counters = KernelCounters()
        stats = sorter.incremental_update_tile(grid, tile, counters)
        assert stats.moved_particles >= 1
        # the GPMA order is consistent again
        order = sorter.iteration_order(tile)
        cells = tile.local_cell_ids(grid)[order]
        assert np.all(np.diff(cells) >= 0)
        assert counters.phase("sort").total_events() > 0

    def test_no_moves_means_no_pending_work(self):
        grid, container = make_tiled_plasma()
        sorter = IncrementalSorter()
        tile = container.nonempty_tiles()[0]
        sorter.global_sort_tile(grid, tile)
        stats = sorter.incremental_update_tile(grid, tile)
        assert stats.moved_particles == 0
        assert stats.local_rebuilds == 0

    def test_state_rebuilt_after_particle_count_change(self):
        grid, container = make_tiled_plasma()
        sorter = IncrementalSorter()
        tile = container.nonempty_tiles()[0]
        sorter.global_sort_tile(grid, tile)
        tile.append(x=np.array([tile.x[0]]), y=np.array([tile.y[0]]),
                    z=np.array([tile.z[0]]))
        stats = sorter.incremental_update_tile(grid, tile)
        # the rebuild is reported, and only once: the slot totals are the
        # structure's, not the rebuild's and the update's added up
        assert stats.global_sorts == 1
        assert stats.moved_particles == 0 and stats.local_rebuilds == 0
        assert isinstance(tile.sorter, TileSortState)
        assert tile.sorter.num_particles == tile.num_particles
        assert stats.total_slots == tile.sorter.gpma.capacity
        assert stats.empty_slots == tile.sorter.gpma.num_empty_slots
        # the next visit finds the state current
        assert sorter.incremental_update_tile(grid, tile).global_sorts == 0

    def test_bin_population_none_without_sorter(self):
        grid, container = make_tiled_plasma()
        tile = container.nonempty_tiles()[0]
        assert IncrementalSorter.bin_population(tile) is None
        assert IncrementalSorter.iteration_order(tile) is None

    def test_empty_tile_update(self):
        grid, container = make_tiled_plasma()
        sorter = IncrementalSorter()
        empty = [t for t in container.iter_tiles() if t.num_particles == 0]
        if empty:
            stats = sorter.incremental_update_tile(grid, empty[0])
            assert stats.moved_particles == 0
