"""The migration regroup's handoff to the sorter, and when it is dropped.

A tile the sorter manages leaves the regroup in cell order with its cell
ids in ``ParticleTile.sorted_cells`` and their population per cell in
``ParticleTile.sorted_population``; the next global sort of the tile
adopts them instead of recomputing, counting-sorting and permuting (or
recounting the cells for the fresh state's capacity).
Those ids describe one storage order and one set of positions, so the
handoff must reach the deposit untouched, and everything that changes
the order or the positions afterwards must drop it (and with it the sort
state) so the tile takes the recompute path.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from repro.api import Session
from repro.baselines.configs import make_strategy
from repro.ckpt import capture_state, restore_state
from repro.core import incremental_sort
from repro.core.counting_sort import counting_sort_permutation
from repro.core.gpma import GappedPMA
from repro.core.incremental_sort import IncrementalSorter
from repro.hardware.counters import KernelCounters
from repro.pipeline.builder import global_stages
from repro.pic.pusher import BorisPusher
from repro.workloads.uniform import UniformPlasmaWorkload

from helpers import hot_plasma_session, tiled_plasma, tiled_scenarios
from stage_effects import conflicts, declared_effects

#: what the handoff is valid for: the storage order and the positions
#: of the regroup, and the grid geometry its cell ids were taken on
HANDOFF_INPUTS = ("containers.position", "containers.membership",
                  "grid.geometry")


def test_no_stage_between_migrate_and_deposit_invalidates_the_handoff():
    stages = global_stages()
    names = [stage.name for stage in stages]
    assert names.index("migrate") < names.index("deposit")
    for stage in stages[names.index("migrate") + 1:names.index("deposit")]:
        _, writes = declared_effects(stage)
        assert not any(conflicts(written, resource) for written in writes
                       for resource in HANDOFF_INPUTS), stage.name


def regrouped():
    """A grid and a container whose tiles the sorter manages, right after
    a regroup that moved particles between every pair of neighbours."""
    grid, container = tiled_plasma((8, 8, 8), (4, 4, 4), (True, True, False),
                                   [200] * 8, seed=3)
    sorter = IncrementalSorter()
    for tile in container.nonempty_tiles():
        sorter.global_sort_tile(grid, tile)
    for tile in container.tiles:
        tile.x[...] += 1.0
        tile.z[...] -= 1.0
    assert container.redistribute(grid) > 0
    assert all(tile.sorted_cells is not None for tile in container.tiles)
    return grid, container, sorter


def recomputes(sorter, grid, tile):
    """Whether a global sort of ``tile`` runs the counting sort."""
    with mock.patch.object(incremental_sort, "counting_sort_permutation",
                           wraps=counting_sort_permutation) as spy:
        sorter.global_sort_tile(grid, tile)
    return spy.called


def permute(grid, container, tile):
    tile.permute(np.arange(tile.num_particles)[::-1])


def insert(grid, container, tile):
    container.add_particles(grid, x=tile.x[:1].copy(), y=tile.y[:1].copy(),
                            z=tile.z[:1].copy())


def compact(grid, container, tile):
    tile.z[0] = -1.0  # out through the open wall
    total = container.num_particles
    assert container.redistribute(grid) == 0
    assert container.num_particles == total - 1


class TestTheHandoff:
    def test_the_regroup_leaves_cell_order_and_the_sorter_adopts_it(self):
        grid, container, sorter = regrouped()
        for tile in container.tiles:
            cells = tile.local_cell_ids(grid)
            assert np.all(np.diff(cells) >= 0)
            assert np.array_equal(tile.sorted_cells, cells)
            ids = tile.ids.copy()
            assert not recomputes(sorter, grid, tile)
            assert np.array_equal(tile.ids, ids)
            assert tile.sorter.assigned_bins is tile.sorted_cells

    @pytest.mark.parametrize("change", [permute, insert, compact])
    def test_a_tile_changed_after_the_regroup_is_recomputed(self, change):
        grid, container, sorter = regrouped()
        tile = container.tiles[0]
        change(grid, container, tile)
        assert tile.sorted_cells is None and tile.sorter is None
        assert tile.keeps_cell_order
        assert recomputes(sorter, grid, tile)
        assert np.all(np.diff(tile.local_cell_ids(grid)) >= 0)

    def test_the_push_drops_the_handoff(self):
        grid, container, sorter = regrouped()
        states = [tile.sorter for tile in container.tiles]
        BorisPusher(1).push(container, grid, 1.0e-18)
        for tile, state in zip(container.tiles, states):
            assert tile.sorted_cells is None and tile.sorter is state
            assert recomputes(sorter, grid, tile)

    def test_a_restored_session_recomputes(self):
        # hot enough that every step migrates particles between the tiles
        workload = UniformPlasmaWorkload(
            n_cell=(8, 8, 16), tile_size=(8, 8, 8), ppc=8, shape_order=3,
            max_steps=10)
        strategy = make_strategy("MatrixPIC (FullOpt)")
        with hot_plasma_session(workload, strategy) as session:
            session.step()
            session.step()
            tiles = session.containers[0].nonempty_tiles()
            assert any(tile.sorted_cells is not None for tile in tiles)
            bins = [tile.sorter.assigned_bins.copy() for tile in tiles]
            restore_state(session, *capture_state(session))
            for tile, recorded in zip(tiles, bins):
                # a snapshot holds the sort state, never the handoff
                assert tile.sorted_cells is None
                assert np.array_equal(tile.sorter.assigned_bins, recorded)
                assert recomputes(strategy.sorter, session.grid, tile)


def test_scrambling_drops_the_sort_state():
    """``permute`` used to keep the tile's sort state when the count
    matched: the next visit then reported nearly every particle as moved
    and churned the whole GPMA through ``apply_moves``."""
    workload = UniformPlasmaWorkload(n_cell=(8, 8, 16), tile_size=(8, 8, 8),
                                     ppc=8, shape_order=3, max_steps=10)
    strategy = make_strategy("MatrixPIC (FullOpt)")
    with Session.from_workload(workload, deposition=strategy) as session:
        session.step()
        session.step()
        workload.scramble_particles(session.simulation)
        for tile in session.containers[0].nonempty_tiles():
            assert tile.num_particles == 4096 and tile.sorter is None
            stats = strategy.sorter.incremental_update_tile(session.grid,
                                                            tile)
            assert stats.global_sorts == 1 and stats.moved_particles == 0
            assert np.all(np.diff(tile.local_cell_ids(session.grid)) >= 0)


@settings(max_examples=30, deadline=None)
@given(scenario=tiled_scenarios())
def test_the_handed_population_is_the_recount(scenario):
    """The regroup hands over each cell's population beside the cell
    ids: it is their recount, so a fresh state's capacity, its
    statistics and the sort phase's counters are those of a tile whose
    cells the sorter counts itself."""
    grid, container = tiled_plasma(**scenario)
    sorter = IncrementalSorter()
    for tile in container.nonempty_tiles():
        sorter.global_sort_tile(grid, tile)
    rng = np.random.default_rng(scenario["seed"])
    for tile in container.tiles:  # up to a cell on every axis
        for axis in (tile.x, tile.y, tile.z):
            axis[...] += rng.uniform(-1.0, 1.0, tile.num_particles)
    container.redistribute(grid)
    for tile in container.tiles:
        if tile.sorted_cells is None:
            continue
        recount = np.bincount(tile.sorted_cells, minlength=tile.num_cells)
        assert np.array_equal(tile.sorted_population, recount)
        handed, counted = KernelCounters(), KernelCounters()
        stats = sorter.global_sort_tile(grid, tile, handed)
        capacity = tile.sorter.fresh_capacity
        tile.drop_sort_state()
        assert recomputes(sorter, grid, tile) == (tile.num_particles > 0)
        tile.drop_sort_state()
        assert sorter.global_sort_tile(grid, tile, counted) == stats
        assert capacity == tile.sorter.fresh_capacity == int(
            GappedPMA(tile.num_cells).region_sizes(recount).sum())
        assert handed.phase("sort").as_dict() \
            == counted.phase("sort").as_dict()
