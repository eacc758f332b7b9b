"""The reference deposit per run of tiles against the per-tile oracle.

``deposit_reference`` / ``deposit_rho_reference`` stage and scatter once
per run of tiles (``repro.pic.particles.tile_runs``, the pusher's runs);
``tests/deposit_oracles.py`` keeps the per-tile loop they replaced.  A
node that one tile's particles alone reach gets the same sum either way,
bit for bit; where tiles of one run meet, the run's box adds their
particles in one pass and the sum may move in the last ulps.  So, at the
oracle's shard count, for any tile populations, shape order, boundary
mix, run size and prior grid content:

* bitwise equal wherever at most one tile reaches a node, and within
  1e-14 of the component's peak everywhere else;
* bitwise equal everywhere when every run is a single tile;
* ``serial`` and ``threads`` at an equal shard count bitwise equal.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import constants
from repro.config import ExecutionConfig, SpeciesConfig
from repro.exec import TileExecutor
from repro.pic import particles
from repro.pic.deposition import reference
from repro.pic.deposition.base import prepare_run_data, prepare_tile_data
from repro.pic.deposition.reference import (
    deposit_reference,
    deposit_rho_reference,
)
from repro.pic.particles import BATCH_PARTICLES
from repro.pic.shapes import shape_factors
from repro.pic.stencil import StencilOperator

from deposit_oracles import (
    oracle_deposit_reference,
    oracle_deposit_rho_reference,
)
from helpers import grid_node_ids, tiled_plasma, tiled_scenarios

DENSITIES = ("jx", "jy", "jz", "rho")
IONS = SpeciesConfig(name="ions", charge=constants.Q_PROTON,
                     mass=constants.M_PROTON)


def tiles_reaching(grid, container, order):
    """How many tiles' particles reach each grid node (stencil footprint
    after the periodic wrap / open-boundary clamp)."""
    reach = np.zeros(grid.jx.size, dtype=np.int64)
    for tile in container.nonempty_tiles():
        xi, yi, zi = grid.normalized_position(tile.x, tile.y, tile.z)
        bases = [shape_factors(coords, order)[0] for coords in (xi, yi, zi)]
        nodes = grid_node_ids(StencilOperator.from_bases(
            grid.shape, grid.periodic, *bases, order + 1))
        reach[np.unique(nodes)] += 1
    return reach.reshape(grid.shape)


@settings(max_examples=50, deadline=None)
@given(scenario=tiled_scenarios(), order=st.integers(1, 3),
       batch_particles=st.sampled_from([1, 700, BATCH_PARTICLES]),
       prior=st.booleans())
def test_runs_match_the_per_tile_oracle(scenario, order, batch_particles,
                                        prior):
    grid, electrons = tiled_plasma(**scenario)
    if prior:  # the grid already holds an ion species' densities
        _, ions = tiled_plasma(**{**scenario, "seed": scenario["seed"] + 1},
                               species=IONS)
        oracle_deposit_reference(grid, ions, 3)
        oracle_deposit_rho_reference(grid, ions, 3)
    start = {name: getattr(grid, name).copy() for name in DENSITIES}

    def deposit(executor, oracle=False):
        for name in DENSITIES:
            getattr(grid, name)[...] = start[name]
        if oracle:
            oracle_deposit_reference(grid, electrons, order, executor)
            oracle_deposit_rho_reference(grid, electrons, order, executor)
        else:
            deposit_reference(grid, electrons, order, executor)
            deposit_rho_reference(grid, electrons, order, executor)
        return {name: getattr(grid, name).copy() for name in DENSITIES}

    single = tiles_reaching(grid, electrons, order) <= 1
    got = {}
    with mock.patch.object(particles, "BATCH_PARTICLES", batch_particles):
        for shards in (1, 3):
            with TileExecutor(ExecutionConfig("serial", shards)) as executor:
                want = deposit(executor, oracle=True)
                got[shards] = deposit(executor)
            for name in DENSITIES:
                mine, oracle = got[shards][name], want[name]
                if batch_particles == 1:  # every run is one tile
                    assert np.array_equal(mine, oracle), (shards, name)
                assert np.array_equal(mine[single], oracle[single]), \
                    (shards, name)
                peak = float(np.max(np.abs(oracle), initial=0.0))
                assert np.all(np.abs(mine - oracle) <= 1e-14 * peak), \
                    (shards, name)
        with TileExecutor(ExecutionConfig("threads", 3)) as executor:
            threads = deposit(executor)
    for name in DENSITIES:
        assert np.array_equal(threads[name], got[3][name]), name


def test_a_run_stages_its_tiles_in_order_and_has_no_tile_box():
    grid, container = tiled_plasma((10, 8, 12), (4, 4, 4), (True, False, True),
                                   [30, 0, 1, 45, 7, 0], seed=11)
    tiles = container.tiles[:6]
    run = prepare_run_data(grid, tiles, container.charge, 3)
    alone = [prepare_tile_data(grid, tile, container.charge, 3)
             for tile in tiles]
    # the staging is per particle: the run is its tiles' staging joined
    for name in ("base_x", "base_y", "base_z", "wx", "wy", "wz", "wqx",
                 "wqy", "wqz", "cell_ids"):
        assert np.array_equal(getattr(run, name), np.concatenate(
            [getattr(data, name) for data in alone])), name
    # ... but tile-local ids need a tile box, which a run does not have
    with pytest.raises(ValueError, match="no tile box"):
        run.local_cell_ids
    one = prepare_run_data(grid, [tiles[3]], container.charge, 3)
    assert np.array_equal(one.local_cell_ids, alone[3].local_cell_ids)
    assert np.array_equal(alone[1].local_cell_ids, np.empty(0))


@pytest.mark.parametrize("batch_particles, deposits", [(1, 6), (700, 3),
                                                     (BATCH_PARTICLES, 1)])
def test_one_staging_and_scatter_per_run(batch_particles, deposits):
    # six 400-particle tiles and two empty ones: the patched run size
    # reaches the deposit, which scatters once per run
    grid, container = tiled_plasma((8, 8, 8), (4, 4, 4), (True, False, True),
                                   [400, 0, 400, 400, 0, 400, 400, 400],
                                   seed=3)
    with mock.patch.object(particles, "BATCH_PARTICLES", batch_particles), \
            mock.patch.object(reference, "scatter_tile_currents",
                              wraps=reference.scatter_tile_currents) as spy:
        deposit_reference(grid, container, 1)
    assert spy.call_count == deposits
