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

The row space lays the cells of one depth (block count) side by side,
and the gather multiplies each depth's cells as one stack against one
copy of each cell's operand; the oracle multiplies block by block
against a copy per block.  Crowded cells one to four blocks deep beside
sparse ones hold the two equal bit for bit, and a property test holds
``cell_block_slots`` to its layout.
"""

from __future__ import annotations

from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deposit_oracles import (
    einsum_deposit_panels,
    oracle_einsum_gather_fields,
    oracle_einsum_tile_rhocells,
)
from helpers import FIELD_NAMES, gather_field, tiled_plasma, tiled_scenarios
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
        layout = cell_block_slots(data.local_cell_ids[order_idx],
                                  num_cells, order_idx)
        slots = layout.slots
        want_left, want_right = einsum_deposit_panels(
            data, slots, layout.num_blocks * BLOCK_ROWS)
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


def crowd_one_cell(grid, container, count, rng):
    """Insert ``count`` particles inside one random cell of the
    container's first tile (unit cells, as ``tiled_plasma`` builds them)."""
    tile = container.tiles[0]
    cell = [rng.integers(lo, hi) for lo, hi in zip(tile.cell_lo,
                                                    tile.cell_hi)]
    pos = cell + rng.uniform(0.0, 1.0, (count, 3))
    mom = rng.normal(0.0, 0.5 * constants.C_LIGHT, (count, 3))
    container.add_particles(grid, x=pos[:, 0], y=pos[:, 1], z=pos[:, 2],
                            ux=mom[:, 0], uy=mom[:, 1], uz=mom[:, 2],
                            w=rng.uniform(0.5, 1.5, count))


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("ordering", ORDERINGS)
@settings(max_examples=10, deadline=None)
@given(scenario=tiled_scenarios())
def test_the_gather_of_cells_of_several_depths_is_bitwise_the_oracle(
        scenario, ordering, order):
    # cells one to four blocks deep beside sparse ones: the gather
    # multiplies each depth's cells as one stack, the oracle block by block
    grid, container = tiled_plasma(**scenario)
    rng = np.random.default_rng(scenario["seed"])
    for k in (1, 2, 3):
        crowd_one_cell(grid, container, k * BLOCK_ROWS + 1, rng)
    # each tile's particles in processing order, then all of them at once
    batches = []
    for tile in container.nonempty_tiles():
        order_idx = processing_order(tile.local_cell_ids(grid),
                                     tile.num_cells, ordering, rng)
        batches.append([getattr(tile, axis)[order_idx] for axis in "xyz"])
    batches.append([np.concatenate(axis) for axis in zip(*batches)])
    for x, y, z in batches:
        got = gather_fields(grid, x, y, z, order)
        want = oracle_einsum_gather_fields(grid, x, y, z, order)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        # one component is its column of the six
        for name in ("ex", "bz"):
            assert np.array_equal(
                gather_field(grid, getattr(grid, name), x, y, z, order),
                want[FIELD_NAMES.index(name)])


@settings(max_examples=100, deadline=None)
@given(counts=st.lists(st.one_of(st.just(0), st.integers(1, 70)),
                       min_size=1, max_size=40),
       shuffle=st.booleans(), seed=st.integers(0, 2**31))
def test_cell_block_slots_lays_cells_of_equal_depth_side_by_side(
        counts, shuffle, seed):
    rng = np.random.default_rng(seed)
    num_cells = len(counts)
    cells = rng.permutation(np.repeat(np.arange(num_cells), counts))
    order_idx = rng.permutation(cells.shape[0]) if shuffle else None
    sequence = cells if order_idx is None else cells[order_idx]
    layout = cell_block_slots(sequence, num_cells, order_idx)

    # the occupied cells, each once, with ceil(count / BLOCK_ROWS) blocks
    counts = np.asarray(counts)
    assert sorted(layout.cells.tolist()) == np.flatnonzero(counts).tolist()
    assert np.array_equal(layout.depth,
                          -(-counts[layout.cells] // BLOCK_ROWS))
    # each cell's blocks are consecutive, the cells back to back
    assert np.array_equal(layout.first_block,
                          np.cumsum(layout.depth) - layout.depth)
    # cells of equal depth are contiguous, and the runs say where
    runs = layout.depth_runs
    assert len(runs) == len(set(layout.depth.tolist()))
    assert [(lo, hi) for _, lo, hi in runs] == list(
        zip([0] + [hi for _, _, hi in runs[:-1]],
            [hi for _, _, hi in runs]))
    assert (runs[-1][2] if runs else 0) == layout.cells.shape[0]
    for depth, lo, hi in runs:
        assert set(layout.depth[lo:hi].tolist()) == {depth}
    # the slots fill the leading rows of each cell's blocks, one particle
    # a row, in the processing order
    rows_of = {}
    processing = (np.arange(cells.shape[0]) if order_idx is None
                  else order_idx)
    for p in processing:
        rows_of.setdefault(int(cells[p]), []).append(int(layout.slots[p]))
    for cell, first in zip(layout.cells, layout.first_block):
        start = int(first) * BLOCK_ROWS
        assert rows_of[int(cell)] == list(
            range(start, start + int(counts[cell])))
    assert len(set(layout.slots.tolist())) == cells.shape[0]


@settings(max_examples=30, deadline=None)
@given(scenario=tiled_scenarios(), order=st.sampled_from([1, 3]),
       ordering=st.sampled_from(ORDERINGS),
       batch_particles=st.sampled_from([1, 700, BATCH_PARTICLES]))
def test_the_deposit_cut_between_cells_is_bitwise_the_whole_tile(
        scenario, order, ordering, batch_particles):
    grid, container = tiled_plasma(**scenario)
    rng = np.random.default_rng(scenario["seed"])
    # one cell holding more than the cap: it must stay in one piece
    crowd_one_cell(grid, container, batch_particles + 1, rng)
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
