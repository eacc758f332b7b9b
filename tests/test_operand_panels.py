"""The node-major operand panels and the deposit's pieces, held bit for
bit to the whole-tile einsum form.

The block deposit (``tile_rhocells``) and the block gather
(``gather_fields``) build their operand panels with
``repro.pic.blocks.outer_rows`` from node-major shape factors.
``tests/deposit_oracles.py`` keeps the ``np.einsum`` formulation both
used before, on row-major factors, around the same slots, GEMMs and
fold.  The panels are equal bit for bit, so every GEMM input is, so the
rhocells and the gathered fields are too — on any CPU and BLAS, because
both sides hand BLAS the same arrays.

``tile_rhocells`` works a tile above ``BATCH_PARTICLES`` in pieces cut
between cells, each staged on its own; the oracle stages and multiplies
the whole tile at once.  A cell's blocks do not depend on the cut, so
the two are equal bit for bit at any cap, a cell above the cap included.
"""

from __future__ import annotations

from functools import partial
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from deposit_oracles import (
    einsum_deposit_panels,
    oracle_einsum_gather_fields,
    oracle_einsum_tile_rhocells,
)
from helpers import tiled_plasma, tiled_scenarios
from repro import constants
from repro.core.gpma import GappedPMA
from repro.core.mpu_deposit import tile_rhocells
from repro.pic import particles
from repro.pic.blocks import BLOCK_ROWS, cell_block_slots, outer_rows
from repro.pic.deposition.base import prepare_run_data, prepare_tile_data
from repro.pic.gather import gather_fields
from repro.pic.particles import BATCH_PARTICLES

ORDERINGS = ("sorted", "gpma", "shuffled")


def processing_order(cells, num_cells, ordering, rng):
    """A processing order of a tile: stably cell-sorted, a GPMA's
    iteration order after a batch of moves (grouped by cell, but not in
    storage order within a cell), or a random shuffle."""
    if ordering == "sorted":
        return np.argsort(cells, kind="stable")
    if ordering == "shuffled":
        return rng.permutation(cells.shape[0])
    # the GPMA held every particle in a stale cell, then took the moves
    gpma = GappedPMA(num_cells)
    stale = rng.permutation(cells)
    gpma.build(stale)
    moved = np.nonzero(stale != cells)[0]
    gpma.apply_moves(moved, cells[moved])
    if gpma.overflow:
        gpma.build(cells)
    return gpma.iteration_order()


@settings(max_examples=50, deadline=None)
@given(scenario=tiled_scenarios(), order=st.sampled_from([1, 3]),
       ordering=st.sampled_from(ORDERINGS))
def test_panels_rhocells_and_gather_are_bitwise_the_einsum_oracle(
        scenario, order, ordering):
    grid, container = tiled_plasma(**scenario)
    rng = np.random.default_rng(scenario["seed"])
    for tile in container.nonempty_tiles():
        num_cells = tile.num_cells
        data = prepare_tile_data(grid, tile, container.charge, order)
        order_idx = processing_order(data.local_cell_ids, num_cells,
                                     ordering, rng)
        assert np.array_equal(np.sort(order_idx),
                              np.arange(tile.num_particles))

        # the deposit's two panels, scattered to the same slots
        slots, cell_blocks, _ = cell_block_slots(
            data.local_cell_ids[order_idx], num_cells, order_idx)
        want_left, want_right = einsum_deposit_panels(
            data, slots, int(cell_blocks.sum()) * BLOCK_ROWS)
        left = np.zeros_like(want_left)
        right = np.zeros_like(want_right)
        outer_rows(left, slots, np.stack((data.wqx, data.wqy, data.wqz)),
                   data.wx.T)
        outer_rows(right, slots, data.wy.T, data.wz.T)
        assert np.array_equal(left, want_left)
        assert np.array_equal(right, want_right)

        *got, got_stats = tile_rhocells(
            partial(prepare_run_data, grid, [tile], container.charge, order),
            data.local_cell_ids, order_idx, num_cells, order)
        *want, want_stats = oracle_einsum_tile_rhocells(data, order_idx,
                                                        num_cells)
        assert got_stats == want_stats
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

        # the gather, the tile's particles in processing order
        x, y, z = (getattr(tile, axis)[order_idx] for axis in "xyz")
        for g, w in zip(gather_fields(grid, x, y, z, order),
                        oracle_einsum_gather_fields(grid, x, y, z, order)):
            assert np.array_equal(g, w)


def crowd_one_cell(tile, count, rng):
    """Append ``count`` particles inside one random cell of ``tile``
    (unit cells, as ``tiled_plasma`` builds them)."""
    cell = [rng.integers(lo, hi) for lo, hi in zip(tile.cell_lo,
                                                    tile.cell_hi)]
    pos = cell + rng.uniform(0.0, 1.0, (count, 3))
    mom = rng.normal(0.0, 0.5 * constants.C_LIGHT, (count, 3))
    tile.append(x=pos[:, 0], y=pos[:, 1], z=pos[:, 2], ux=mom[:, 0],
                uy=mom[:, 1], uz=mom[:, 2], w=rng.uniform(0.5, 1.5, count),
                ids=np.arange(count))


@settings(max_examples=30, deadline=None)
@given(scenario=tiled_scenarios(), order=st.sampled_from([1, 3]),
       ordering=st.sampled_from(ORDERINGS),
       batch_particles=st.sampled_from([1, 700, BATCH_PARTICLES]))
def test_the_deposit_cut_between_cells_is_bitwise_the_whole_tile(
        scenario, order, ordering, batch_particles):
    grid, container = tiled_plasma(**scenario)
    rng = np.random.default_rng(scenario["seed"])
    # one cell holding more than the cap: it must stay in one piece
    crowd_one_cell(container.tiles[0], batch_particles + 1, rng)
    for tile in container.nonempty_tiles():
        n, num_cells = tile.num_particles, tile.num_cells
        data = prepare_tile_data(grid, tile, container.charge, order)
        cells = data.local_cell_ids
        order_idx = processing_order(cells, num_cells, ordering, rng)
        pieces = []

        def stage(selection):
            pieces.append(np.arange(n)[selection])
            return prepare_run_data(grid, [tile], container.charge, order,
                                    selection)

        with mock.patch.object(particles, "BATCH_PARTICLES",
                               batch_particles):
            *got, got_stats = tile_rhocells(stage, cells, order_idx,
                                            num_cells, order)
        *want, want_stats = oracle_einsum_tile_rhocells(data, order_idx,
                                                        num_cells)
        assert got_stats == want_stats
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

        # every particle staged once, every cell in one piece only, at
        # most ceil(n / cap) pieces — one a cell when the cap is 1
        assert np.array_equal(np.sort(np.concatenate(pieces)), np.arange(n))
        held = [set(cells[piece].tolist()) for piece in pieces]
        assert sum(map(len, held)) == len(set().union(*held))
        assert len(pieces) <= max(-(-n // batch_particles), 1)
        if batch_particles == 1:
            assert len(pieces) == len(set(cells.tolist()))
