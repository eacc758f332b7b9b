"""The node-major operand panels, held bit for bit to the einsum form.

The block deposit (``tile_rhocells``) and the block gather
(``gather_fields``) build their operand panels with
``repro.pic.blocks.outer_rows`` from node-major shape factors.
``tests/deposit_oracles.py`` keeps the ``np.einsum`` formulation both
used before, on row-major factors, around the same slots, GEMMs and
fold.  The panels are equal bit for bit, so every GEMM input is, so the
rhocells and the gathered fields are too — on any CPU and BLAS, because
both sides hand BLAS the same arrays.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from deposit_oracles import (
    einsum_deposit_panels,
    oracle_einsum_gather_fields,
    oracle_einsum_tile_rhocells,
)
from helpers import tiled_plasma, tiled_scenarios
from repro.core.gpma import GappedPMA
from repro.core.mpu_deposit import tile_rhocells
from repro.pic.blocks import BLOCK_ROWS, cell_block_slots, outer_rows
from repro.pic.deposition.base import prepare_tile_data
from repro.pic.gather import gather_fields

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

        *got, got_stats = tile_rhocells(data, order_idx, num_cells)
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
