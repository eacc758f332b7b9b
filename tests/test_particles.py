"""Tests for the tiled SoA particle container."""

import numpy as np
import pytest

from repro.config import GridConfig, SpeciesConfig
from repro.pic.grid import Grid
from repro.pic.particles import ParticleContainer, ParticleTile


@pytest.fixture
def setup():
    config = GridConfig(n_cell=(8, 8, 8), hi=(8.0, 8.0, 8.0), tile_size=(4, 4, 4))
    grid = Grid(config)
    container = ParticleContainer(config, SpeciesConfig())
    return config, grid, container


class TestParticleTile:
    def test_append_and_counts(self):
        tile = ParticleTile((0, 0, 0), (0, 0, 0), (4, 4, 4))
        tile.append(x=np.array([0.5, 1.5]), y=np.zeros(2), z=np.zeros(2))
        assert tile.num_particles == 2
        assert tile.num_cells == 64
        assert tile.tile_cells == (4, 4, 4)
        # missing momentum defaults to zero, weight to one
        np.testing.assert_array_equal(tile.ux, np.zeros(2))
        np.testing.assert_array_equal(tile.w, np.ones(2))

    def test_append_length_mismatch(self):
        tile = ParticleTile((0, 0, 0), (0, 0, 0), (4, 4, 4))
        with pytest.raises(ValueError):
            tile.append(x=np.array([0.5, 1.5]), y=np.zeros(3), z=np.zeros(2))

    def test_remove_returns_removed(self):
        tile = ParticleTile((0, 0, 0), (0, 0, 0), (4, 4, 4))
        tile.append(x=np.arange(4.0), y=np.zeros(4), z=np.zeros(4),
                    ids=np.array([10, 11, 12, 13]))
        removed = tile.remove(np.array([True, False, True, False]))
        assert tile.num_particles == 2
        np.testing.assert_array_equal(removed["ids"], [10, 12])
        np.testing.assert_array_equal(tile.ids, [11, 13])
        # the removed particles are the caller's to keep: no view of the
        # tile's storage (mask indexing allocates; no second copy needed)
        for name in ("x", "y", "z", "ux", "uy", "uz", "w", "ids"):
            assert not np.shares_memory(removed[name], getattr(tile, name))

    def test_remove_mask_length_check(self):
        tile = ParticleTile((0, 0, 0), (0, 0, 0), (4, 4, 4))
        tile.append(x=np.zeros(2), y=np.zeros(2), z=np.zeros(2))
        with pytest.raises(ValueError):
            tile.remove(np.array([True]))

    def test_permute(self):
        tile = ParticleTile((0, 0, 0), (0, 0, 0), (4, 4, 4))
        tile.append(x=np.array([1.0, 2.0, 3.0]), y=np.zeros(3), z=np.zeros(3),
                    ids=np.array([0, 1, 2]))
        tile.permute(np.array([2, 0, 1]))
        np.testing.assert_array_equal(tile.x, [3.0, 1.0, 2.0])
        np.testing.assert_array_equal(tile.ids, [2, 0, 1])

    def test_append_invalidates_sorter(self):
        tile = ParticleTile((0, 0, 0), (0, 0, 0), (4, 4, 4))
        tile.sorter = object()
        tile.append(x=np.array([0.5]), y=np.array([0.5]), z=np.array([0.5]))
        assert tile.sorter is None

    def test_local_cell_ids(self, setup):
        _, grid, _ = setup
        tile = ParticleTile((1, 0, 0), (4, 0, 0), (8, 4, 4))
        tile.append(x=np.array([4.5, 7.5]), y=np.array([0.5, 3.5]),
                    z=np.array([0.5, 2.5]))
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
        ids = container.gather_soa()["ids"]
        assert np.unique(ids).size == 10

    def test_periodic_boundary_wraps_positions(self, setup):
        _, grid, container = setup
        container.add_particles(grid, x=np.array([0.5]), y=np.array([0.5]),
                                z=np.array([0.5]))
        tile = container.nonempty_tiles()[0]
        tile.x[0] = 8.7      # beyond the upper edge
        tile.z[0] = -0.3     # below the lower edge
        removed = container.apply_boundary_conditions(grid)
        assert removed == 0
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
        removed = container.apply_boundary_conditions(grid)
        assert removed == 1
        assert container.num_particles == 1

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
        soa = container.gather_soa()
        assert soa["x"].size == 0
