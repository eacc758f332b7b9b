"""The batched particle stages equal the per-tile ones, bit for bit.

Gather + push run once per run of tiles (``repro.pic.pusher``), the
boundary conditions and the migration as one scan per shard and one
take of the store, an insert as one pass over it
(``repro.pic.particles``).  The
per-tile bodies they replaced are the oracle in
``tests/particle_oracles.py``; every tile's eight SoA arrays (values and
storage order), the absorbed and moved counts, which tiles keep their
``sorter`` and the cell ids the regroup hands a tile kept in cell order must match it for any tile
populations, arrivals, tiles kept in cell order, shape order, boundary
mix, run size and executor.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import constants
from repro.config import ExecutionConfig, GridConfig, SpeciesConfig
from repro.core.incremental_sort import IncrementalSorter
from repro.exec import TileExecutor, shard_items
from repro.pic import particles, pusher
from repro.pic.gather import gather_fields
from repro.pic.grid import Grid
from repro.pic.particles import (
    BATCH_PARTICLES,
    ParticleContainer,
    piece_bounds,
    tile_runs,
)
from repro.pic.pusher import BorisPusher, boris_push_momentum, velocities
from repro.pic.stencil import StencilOperator

from deposit_oracles import stencil_gather
from helpers import FIELD_NAMES, tiled_plasma, tiled_scenarios
from particle_oracles import (
    OracleContainer,
    oracle_apply_boundary_conditions,
    oracle_push,
    oracle_redistribute,
)

SOA = ("x", "y", "z", "ux", "uy", "uz", "w", "ids")
EXECUTORS = {"serial1": lambda: TileExecutor(ExecutionConfig("serial", 1)),
             "serial3": lambda: TileExecutor(ExecutionConfig("serial", 3)),
             "threads2": lambda: TileExecutor(ExecutionConfig("threads", 2))}
#: a step moves a particle at most half a cell
DT = 0.5 / constants.C_LIGHT


def jump(container, seed, share):
    """Send a ``share`` of the particles up to two domain widths away
    (several tiles, across periodic seams, out through open walls)."""
    rng = np.random.default_rng(seed)
    extent = np.array(container.grid_config.n_cell, dtype=float)
    for tile in container.tiles:
        far = rng.random(tile.num_particles) < share
        for axis, name in enumerate("xyz"):
            getattr(tile, name)[far] += rng.uniform(
                -2.0, 2.0, int(far.sum())) * extent[axis]


def arrivals(container, seed, count, momenta):
    """``add_particles`` arguments: ``count`` particles anywhere in the
    domain and up to one cell past it (so open walls absorb some and
    periodic seams wrap some), with momenta and weights when
    ``momenta`` (the defaults otherwise)."""
    rng = np.random.default_rng(seed)
    extent = np.array(container.grid_config.n_cell, dtype=float)
    pos = rng.uniform(-1.0, extent + 1.0, (count, 3))
    batch = dict(x=pos[:, 0], y=pos[:, 1], z=pos[:, 2])
    if momenta:
        mom = rng.normal(0.0, 0.5 * constants.C_LIGHT, (count, 3))
        batch.update(ux=mom[:, 0], uy=mom[:, 1], uz=mom[:, 2],
                     w=rng.uniform(0.5, 1.5, count))
    return batch


def snapshot(container):
    return [tuple(getattr(tile, name).copy() for name in SOA)
            for tile in container.tiles]


def assert_same_tiles(expected, container):
    assert len(expected) == len(container.tiles)
    for index, (arrays, tile) in enumerate(zip(expected, container.tiles)):
        for name, want in zip(SOA, arrays):
            got = getattr(tile, name)
            assert got.dtype == want.dtype, (index, name)
            assert np.array_equal(got, want, equal_nan=True), (index, name)


def mark_sorters(container, managed):
    """A distinct stand-in sort state on every tile, and the tiles a
    sorter manages (``managed[i]``) marked as keeping cell order."""
    marks = [object() for _ in container.tiles]
    for tile, mark, keeps in zip(container.tiles, marks, managed):
        tile.sorter = mark
        tile.keeps_cell_order = keeps
    return marks


def kept_sorters(container, marks):
    kept = [tile.sorter is mark for tile, mark in zip(container.tiles, marks)]
    assert all(tile.sorter is None for tile, keep in zip(container.tiles, kept)
               if not keep)
    return kept


def handed_cells(container):
    """Every tile's ``sorted_cells`` and ``sorted_population`` as lists,
    None where there are none."""
    return [None if tile.sorted_cells is None
            else (tile.sorted_cells.tolist(), tile.sorted_population.tolist())
            for tile in container.tiles]


class TestBatchedStagesMatchThePerTileOracle:
    @settings(max_examples=40, deadline=None)
    @given(scenario=tiled_scenarios(), order=st.integers(1, 3),
           share=st.sampled_from([0.0, 0.05, 0.5]),
           batch_particles=st.sampled_from([1, 700, BATCH_PARTICLES]),
           data=st.data())
    def test_push_boundary_and_migration(self, scenario, order, share,
                                         batch_particles, data):
        managed = data.draw(st.lists(
            st.booleans(), min_size=len(scenario["populations"]),
            max_size=len(scenario["populations"])), label="managed")
        # the moving window's refill, between the push and the boundary
        refill = data.draw(st.tuples(st.integers(0, 300), st.booleans()),
                           label="refill")
        # the oracle, stage by stage
        grid, source = tiled_plasma(**scenario)
        oracle = OracleContainer(source)
        oracle_push(oracle, grid, DT, order)
        pushed = snapshot(oracle)
        oracle.add_particles(grid, **arrivals(oracle, scenario["seed"],
                                              *refill))
        added = snapshot(oracle)
        jump(oracle, scenario["seed"], share)
        marks = mark_sorters(oracle, managed)
        absorbed = oracle_apply_boundary_conditions(oracle, grid)
        moved = oracle_redistribute(oracle, grid)
        kept = kept_sorters(oracle, marks)
        handed = handed_cells(oracle)

        for name, make_executor in EXECUTORS.items():
            _, batched = tiled_plasma(**scenario)
            with make_executor() as executor:
                with mock.patch.object(particles, "BATCH_PARTICLES",
                                       batch_particles), \
                        mock.patch.object(pusher, "gather_fields",
                                          wraps=gather_fields) as gathers:
                    runs = [run for shard in shard_items(
                                executor, batched.nonempty_tiles())
                            for run in tile_runs(shard)]
                    BorisPusher(order).push(batched, grid, DT,
                                            executor=executor)
                # the patched batch size reaches the pusher: one
                # gather a batch — a run, or a piece of a tile that is a
                # run of its own and holds more than the cap
                batches = [
                    -(-run[0].num_particles // batch_particles)
                    if len(run) == 1
                    and run[0].num_particles > batch_particles else 1
                    for run in runs]
                assert gathers.call_count == sum(batches), name
                if batch_particles == 1:
                    assert all(len(run) == 1 for run in runs)
                assert_same_tiles(pushed, batched)
                batched.add_particles(grid, **arrivals(
                    batched, scenario["seed"], *refill))
                assert_same_tiles(added, batched)
                jump(batched, scenario["seed"], share)
                marks = mark_sorters(batched, managed)
                held = batched.num_particles
                assert batched.redistribute(
                    grid, executor=executor) == moved, name
                assert batched.num_particles == held - absorbed, name
            assert_same_tiles(snapshot(oracle), batched)
            assert kept_sorters(batched, marks) == kept, name
            assert handed_cells(batched) == handed, name

    @pytest.mark.parametrize("order", [1, 3])
    def test_a_tile_of_run_size_is_pushed_alone(self, order):
        # a tile of batch size between small ones: its own run, no copy
        populations = [300, BATCH_PARTICLES, 0, 200, 5000, 100, 50, 20]
        grid, source = tiled_plasma((8, 8, 8), (4, 4, 4),
                                    (True, False, True), populations, seed=12)
        oracle = OracleContainer(source)
        oracle_push(oracle, grid, DT, order)
        _, batched = tiled_plasma((8, 8, 8), (4, 4, 4), (True, False, True),
                                  populations, seed=12)
        BorisPusher(order).push(batched, grid, DT)
        assert_same_tiles(snapshot(oracle), batched)


    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("lo", [0.0, -0.0, -3.25, 1.0e6])
    def test_the_wrap_equals_np_mod_at_the_edges(self, lo):
        """The wrap skips ``np.mod`` strictly inside the domain, where it
        is the identity; at and beyond the edges it must give exactly what
        wrapping every particle gives (``-0.0``, a tiny negative offset
        that rounds up to the extent, exact multiples, inf and nan)."""
        extent = 8.0
        offsets = np.array([
            0.0, -0.0, extent, 2 * extent, -extent, -1.0e-300, -5.0e-324,
            5.0e-324, np.nextafter(extent, 0.0), np.nextafter(0.0, -1.0),
            3.5, -3.5, 20.25, -1.0e-17, extent + 1.0e-15, np.inf, -np.inf,
            np.nan])
        config = GridConfig(n_cell=(8, 4, 4), lo=(lo, 0.0, 0.0),
                            hi=(lo + extent, 4.0, 4.0), tile_size=(4, 4, 4))
        grid = Grid(config)
        container = ParticleContainer(config, SpeciesConfig())
        n = offsets.shape[0]
        # every offset in each of the two tiles, placed past the routing
        for tile in container.tiles:
            container.add_particles(grid, x=np.full(n, tile.cell_lo[0] + lo),
                                    y=np.full(n, 1.5), z=np.full(n, 2.5))
            tile.x[...] = lo + offsets
        oracle = OracleContainer(container)
        assert oracle_apply_boundary_conditions(oracle, grid) == 0
        moved = oracle_redistribute(oracle, grid)
        assert container.redistribute(grid) == moved
        runs = [snapshot(oracle), snapshot(container)]
        oracle, batched = runs
        for tile_arrays, want in zip(oracle, batched):
            for got, expected in zip(tile_arrays, want):
                assert np.array_equal(np.signbit(got), np.signbit(expected))
                assert np.array_equal(got, expected, equal_nan=True)


class TestRuns:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 3 * BATCH_PARTICLES), max_size=40))
    def test_runs_are_consecutive_and_just_large_enough(self, populations):
        tiles = [SimpleNamespace(num_particles=n) for n in populations]
        runs = list(tile_runs(tiles))
        assert [tile for run in runs for tile in run] == tiles
        for index, run in enumerate(runs):
            held = [tile.num_particles for tile in run]
            assert run
            # a tile of run size is alone; a run stops as soon as it is full
            assert len(run) == 1 or max(held) < BATCH_PARTICLES
            assert sum(held[:-1]) < BATCH_PARTICLES
            if index + 1 < len(runs):
                assert (sum(held) >= BATCH_PARTICLES
                        or runs[index + 1][0].num_particles >= BATCH_PARTICLES)


class TestPieces:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(0, 5000), cap=st.sampled_from([1, 7, 700, 4096]),
           runs=st.lists(st.integers(1, 900), max_size=30))
    def test_pieces_are_near_equal_and_cut_only_between_runs(self, n, cap,
                                                             runs):
        with mock.patch.object(particles, "BATCH_PARTICLES", cap):
            bounds = piece_bounds(n).tolist()
            # ceil(n / cap) pieces, none empty, sizes within one
            sizes = np.diff(bounds)
            assert bounds[0] == 0 and bounds[-1] == n
            assert len(sizes) == max(-(-n // cap), 1)
            assert n == 0 or (sizes.min() > 0 and sizes.max() <= cap
                              and sizes.max() - sizes.min() <= 1)
            # cut only where a run of a grouped order begins
            ends = np.cumsum(runs).tolist()
            total = ends[-1] if ends else 0
            cuts = piece_bounds(total, np.array(ends[:-1], dtype=np.int64))
            assert set(cuts.tolist()) <= {0, *ends}
            assert cuts[0] == 0 and cuts[-1] == total
            assert np.all(np.diff(cuts) > 0)
            pieces = max(-(-total // cap), 1)
            assert len(cuts) - 1 <= pieces
            assert all(size < total / pieces + max(runs)
                       for size in np.diff(cuts))


@pytest.mark.parametrize("order", [1, 3])
def test_a_run_reaching_far_outside_is_gathered_particle_by_particle(order):
    """One particle more than a stencil width outside the domain brings
    the run's bases into range, which moves its box but none of its
    particles' fields: the run gathers, and pushes, bit for bit as its
    tiles do one by one, and to rounding as the stencil's generic
    adjoint does."""
    grid, container = tiled_plasma((8, 8, 8), (4, 4, 4), (True, False, True),
                                   [40] * 8, seed=21)
    container.tiles[3].x[0] = -40.0
    assert container.num_particles < BATCH_PARTICLES  # one run
    x, y, z, ux, uy, uz = (
        np.concatenate([getattr(tile, name) for tile in container.tiles])
        for name in SOA[:6])
    fields = gather_fields(grid, x, y, z, order)
    by_tile = [gather_fields(grid, tile.x, tile.y, tile.z, order)
               for tile in container.tiles]
    operator = StencilOperator.for_grid(grid, x, y, z, order)
    for index, (name, got) in enumerate(zip(FIELD_NAMES, fields)):
        field = getattr(grid, name)
        assert np.array_equal(
            got, np.concatenate([tile[index] for tile in by_tile]))
        np.testing.assert_allclose(got, stencil_gather(operator, field),
                                   rtol=0,
                                   atol=1e-13 * np.abs(field).max())

    ux, uy, uz = boris_push_momentum(ux, uy, uz, *fields, container.charge,
                                     container.mass, DT)
    vx, vy, vz = velocities(ux, uy, uz)
    expected = (x + vx * DT, y + vy * DT, z + vz * DT, ux, uy, uz)
    BorisPusher(order).push(container, grid, DT)
    for name, want in zip(SOA[:6], expected):
        got = np.concatenate([getattr(tile, name)
                              for tile in container.tiles])
        assert np.array_equal(got, want), name


def test_a_tile_that_swaps_particles_loses_its_sort_state():
    """A tile that loses k particles and gains k keeps its count, and
    ``IncrementalSorter.ensure_tile_state`` takes an equal count for a
    valid state — so the migration itself must clear the tile's
    ``sorter``, or the deposit would follow a stale ordering.  The tiles
    the sorter manages come out of the regroup in cell order with their
    cell ids handed over, which the next global sort adopts without a
    counting sort.  A tile the migration does not touch keeps its state
    object, so no global sort is spent on it."""
    config = GridConfig(n_cell=(8, 8, 8), hi=(8.0, 8.0, 8.0),
                        tile_size=(4, 4, 4))
    grid = Grid(config)
    container = ParticleContainer(config, SpeciesConfig())
    rng = np.random.default_rng(2)
    # tiles 0, 1 and 2 own z in [0, 4), z in [4, 8) and y in [4, 8)
    for lo in ((0.0, 0.0, 0.0), (0.0, 0.0, 4.0), (0.0, 4.0, 0.0)):
        pos = rng.uniform(lo, np.add(lo, 4.0), (6, 3))
        container.add_particles(grid, x=pos[:, 0], y=pos[:, 1], z=pos[:, 2])
    sorter = IncrementalSorter()
    for tile in container.nonempty_tiles():
        sorter.global_sort_tile(grid, tile)
    first, second, bystander = container.tiles[:3]
    state = bystander.sorter
    # two particles each way between the first two tiles
    first.z[:2] += 4.0
    second.z[:2] -= 4.0

    assert container.redistribute(grid) == 4
    assert [t.num_particles for t in container.tiles[:3]] == [6, 6, 6]
    assert first.sorter is None and second.sorter is None
    for tile in (first, second):
        cells = tile.local_cell_ids(grid)
        assert np.all(np.diff(cells) >= 0)
        assert np.array_equal(tile.sorted_cells, cells)
    ids = first.ids.copy()
    with mock.patch("repro.core.incremental_sort.counting_sort_permutation",
                    side_effect=AssertionError("re-sorted")):
        sorter.ensure_tile_state(grid, first)
    assert np.array_equal(first.ids, ids)
    assert np.array_equal(first.sorter.assigned_bins, first.sorted_cells)
    assert bystander.sorter is state and bystander.sorted_cells is None
    assert sorter.ensure_tile_state(grid, bystander) is state


def test_cell_order_on_tiles_smaller_than_the_tile_size():
    """``n_cell`` is not a multiple of ``tile_size`` on y and z, so the
    edge tiles have fewer cells per row and plane than a full tile.  The
    cell ids the regroup hands over are each tile's own
    (``ParticleTile.local_cell_ids``), and its order equals the oracle's
    counting sort."""
    scenario = dict(n_cell=(8, 10, 6), tile_size=(4, 4, 4),
                    periodic=(True, True, True), populations=[300] * 12,
                    seed=5)
    grid, batched = tiled_plasma(**scenario)
    oracle = OracleContainer(batched)
    for container in (oracle, batched):
        jump(container, scenario["seed"], 0.3)
        for tile in container.tiles:
            tile.keeps_cell_order = True
    oracle_apply_boundary_conditions(oracle, grid)
    moved = oracle_redistribute(oracle, grid)
    assert batched.redistribute(grid) == moved > 0
    assert_same_tiles(snapshot(oracle), batched)
    assert handed_cells(batched) == handed_cells(oracle)
    edge = [tile for tile in batched.tiles if tile.tile_cells != (4, 4, 4)]
    assert edge and all(tile.num_particles for tile in edge)
    for tile in batched.tiles:
        assert np.array_equal(tile.sorted_cells, tile.local_cell_ids(grid))
