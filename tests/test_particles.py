"""Tests for the tiled SoA particle container."""

import numpy as np
import pytest

from repro.config import GridConfig, SpeciesConfig
from repro.pic.grid import Grid
from repro.pic.particles import ParticleContainer

from helpers import gather_soa


@pytest.fixture
def setup():
    config = GridConfig(n_cell=(8, 8, 8), hi=(8.0, 8.0, 8.0), tile_size=(4, 4, 4))
    grid = Grid(config)
    container = ParticleContainer(config, SpeciesConfig())
    return config, grid, container


class TestParticleTile:
    def test_insert_and_counts(self, setup):
        _, grid, container = setup
        container.add_particles(grid, x=np.array([0.5, 1.5]), y=np.zeros(2),
                                z=np.zeros(2))
        tile = container.tiles[0]
        assert tile.num_particles == 2
        assert tile.num_cells == 64
        assert tile.tile_cells == (4, 4, 4)
        # missing momentum defaults to zero, weight to one
        np.testing.assert_array_equal(tile.ux, np.zeros(2))
        np.testing.assert_array_equal(tile.w, np.ones(2))

    def test_insert_length_mismatch(self, setup):
        _, grid, container = setup
        with pytest.raises(ValueError):
            container.add_particles(grid, x=np.array([0.5, 1.5]),
                                    y=np.zeros(3), z=np.zeros(2))

    def test_arrivals_land_at_each_tiles_end_in_input_order(self, setup):
        _, grid, container = setup
        first, last = container.tiles[0], container.tiles[-1]
        for _ in range(2):
            container.add_particles(grid, x=np.array([7.5, 0.5, 7.5, 0.5]),
                                    y=np.array([7.5, 0.5, 7.5, 0.5]),
                                    z=np.array([7.5, 0.5, 7.5, 0.5]))
        np.testing.assert_array_equal(first.ids, [1, 3, 5, 7])
        np.testing.assert_array_equal(last.ids, [0, 2, 4, 6])
        np.testing.assert_array_equal(container.ids, [1, 3, 5, 7, 0, 2, 4, 6])
        np.testing.assert_array_equal(container.offsets,
                                      [0, 4, 4, 4, 4, 4, 4, 4, 8])

    def test_tile_arrays_are_views_of_the_store(self, setup):
        _, grid, container = setup
        container.add_particles(grid, x=np.array([0.5, 6.5]),
                                y=np.array([0.5, 6.5]), z=np.array([0.5, 6.5]))
        tile = container.nonempty_tiles()[1]
        tile.uz[0] = 3.0
        assert container.block[5, 1] == 3.0
        assert np.shares_memory(tile.ids, container.ids)
        with pytest.raises(AttributeError):
            tile.x = np.zeros(1)

    def test_permute(self, setup):
        _, grid, container = setup
        container.add_particles(grid, x=np.array([1.0, 2.0, 3.0]),
                                y=np.zeros(3), z=np.zeros(3))
        tile = container.tiles[0]
        tile.sorter = object()
        tile.permute(np.array([2, 0, 1]))
        np.testing.assert_array_equal(tile.x, [3.0, 1.0, 2.0])
        np.testing.assert_array_equal(tile.ids, [2, 0, 1])
        assert tile.sorter is None
        with pytest.raises(ValueError):
            tile.permute(np.array([0, 1]))

    def test_insert_invalidates_only_the_receiving_sorters(self, setup):
        _, grid, container = setup
        receiving, other = container.tiles[0], container.tiles[1]
        receiving.sorter = other.sorter = object()
        container.add_particles(grid, x=np.array([0.5]), y=np.array([0.5]),
                                z=np.array([0.5]))
        assert receiving.sorter is None and other.sorter is not None

    def test_local_cell_ids(self, setup):
        _, grid, container = setup
        container.add_particles(grid, x=np.array([4.5, 7.5]),
                                y=np.array([0.5, 3.5]), z=np.array([0.5, 2.5]))
        (tile,) = container.nonempty_tiles()
        assert tile.tile_index == (1, 0, 0)
        ids = tile.local_cell_ids(grid)
        assert ids[0] == 0          # cell (4,0,0) -> local (0,0,0)
        assert ids[1] == (3 * 4 + 3) * 4 + 2


class TestParticleContainer:
    def test_tile_decomposition(self, setup):
        _, _, container = setup
        assert container.tiles_per_axis == (2, 2, 2)
        assert len(container.tiles) == 8

    def test_add_particles_routed_to_tiles(self, setup):
        _, grid, container = setup
        x = np.array([0.5, 6.5])
        y = np.array([0.5, 6.5])
        z = np.array([0.5, 6.5])
        container.add_particles(grid, x=x, y=y, z=z)
        assert container.num_particles == 2
        occupied = [t for t in container.iter_tiles() if t.num_particles]
        assert len(occupied) == 2
        assert occupied[0].tile_index != occupied[1].tile_index

    def test_particle_ids_unique(self, setup):
        _, grid, container = setup
        container.add_particles(grid, x=np.full(5, 0.5), y=np.full(5, 0.5),
                                z=np.full(5, 0.5))
        container.add_particles(grid, x=np.full(5, 7.5), y=np.full(5, 7.5),
                                z=np.full(5, 7.5))
        ids = gather_soa(container)["ids"]
        assert np.unique(ids).size == 10

    def test_periodic_boundary_wraps_positions(self, setup):
        _, grid, container = setup
        container.add_particles(grid, x=np.array([0.5]), y=np.array([0.5]),
                                z=np.array([0.5]))
        tile = container.nonempty_tiles()[0]
        tile.x[0] = 8.7      # beyond the upper edge
        tile.z[0] = -0.3     # below the lower edge
        assert container.redistribute(grid) == 1  # wrapped into another tile
        (tile,) = container.nonempty_tiles()
        assert 0.0 <= tile.x[0] < 8.0
        assert 0.0 <= tile.z[0] < 8.0

    def test_absorbing_boundary_removes(self):
        config = GridConfig(n_cell=(8, 8, 8), hi=(8.0, 8.0, 8.0),
                            tile_size=(4, 4, 4),
                            particle_boundary=("periodic", "periodic", "absorbing"))
        grid = Grid(config)
        container = ParticleContainer(config, SpeciesConfig())
        container.add_particles(grid, x=np.array([0.5, 0.5]),
                                y=np.array([0.5, 0.5]), z=np.array([0.5, 0.5]))
        tile = container.nonempty_tiles()[0]
        tile.z[0] = 9.0
        assert container.redistribute(grid) == 0
        assert container.num_particles == 1

    def test_compaction_keeps_the_order_and_the_untouched_sorters(self):
        config = GridConfig(n_cell=(8, 8, 8), hi=(8.0, 8.0, 8.0),
                            tile_size=(4, 4, 4),
                            particle_boundary=("periodic", "periodic", "absorbing"))
        grid = Grid(config)
        container = ParticleContainer(config, SpeciesConfig())
        container.add_particles(grid, x=np.full(6, 0.5), y=np.full(6, 0.5),
                                z=np.array([0.5, 0.5, 0.5, 6.5, 0.5, 6.5]))
        absorbing, untouched = container.nonempty_tiles()
        absorbing.sorter = untouched.sorter = object()
        absorbing.z[[0, 2]] = -1.0
        assert container.redistribute(grid) == 0
        np.testing.assert_array_equal(absorbing.ids, [1, 4])
        np.testing.assert_array_equal(untouched.ids, [3, 5])
        assert absorbing.sorter is None and untouched.sorter is not None

    def test_redistribute_moves_to_owner_tile(self, setup):
        _, grid, container = setup
        container.add_particles(grid, x=np.array([0.5]), y=np.array([0.5]),
                                z=np.array([0.5]))
        source = container.nonempty_tiles()[0]
        source.x[0] = 6.5    # now belongs to another tile
        moved = container.redistribute(grid)
        assert moved == 1
        owner = container.nonempty_tiles()[0]
        assert owner.tile_index == (1, 0, 0)
        assert container.num_particles == 1

    def test_redistribute_noop_when_home(self, setup):
        _, grid, container = setup
        container.add_particles(grid, x=np.array([0.5]), y=np.array([0.5]),
                                z=np.array([0.5]))
        assert container.redistribute(grid) == 0

    def test_kinetic_energy_zero_at_rest(self, setup):
        _, grid, container = setup
        container.add_particles(grid, x=np.array([0.5]), y=np.array([0.5]),
                                z=np.array([0.5]))
        assert container.kinetic_energy() == pytest.approx(0.0)

    def test_kinetic_energy_positive_with_momentum(self, setup):
        _, grid, container = setup
        container.add_particles(grid, x=np.array([0.5]), y=np.array([0.5]),
                                z=np.array([0.5]), ux=np.array([1.0e7]))
        assert container.kinetic_energy() > 0.0

    def test_gather_soa_empty(self, setup):
        _, _, container = setup
        soa = gather_soa(container)
        assert soa["x"].size == 0
