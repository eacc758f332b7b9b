"""The batched particle stages equal the per-tile ones, bit for bit.

Gather + push run once per run of tiles (``repro.pic.pusher``), the
boundary wrap once per shard and the migration as one stable regroup
(``repro.pic.particles``).  The per-tile bodies they replaced are the
oracle in ``tests/particle_oracles.py``; every tile's eight SoA arrays
(values and storage order), the absorbed and moved counts, the
``move_recorder`` call sequence and which tiles keep their ``sorter``
must match it for any tile populations, shape order, boundary mix, run
size and executor.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import constants
from repro.config import GridConfig, SpeciesConfig
from repro.core.incremental_sort import IncrementalSorter
from repro.exec import SerialExecutor, ThreadTileExecutor
from repro.pic import pusher
from repro.pic.gather import gather_fields
from repro.pic.grid import Grid
from repro.pic.particles import ParticleContainer, ParticleTile
from repro.pic.pusher import (
    RUN_PARTICLES,
    BorisPusher,
    boris_push_momentum,
    tile_runs,
    velocities,
)
from repro.pic.stencil import StencilOperator

from helpers import FIELD_NAMES
from particle_oracles import (
    oracle_apply_boundary_conditions,
    oracle_push,
    oracle_redistribute,
)

SOA = ("x", "y", "z", "ux", "uy", "uz", "w", "ids")
#: (n_cell, tile_size) on unit cells: 8 to 24 tiles, some of them cut
#: short by the domain edge
LAYOUTS = (((8, 8, 8), (4, 4, 4)), ((12, 8, 8), (4, 4, 4)),
           ((10, 8, 12), (4, 4, 4)), ((8, 4, 16), (4, 4, 4)))
EXECUTORS = {"serial1": lambda: SerialExecutor(1),
             "serial3": lambda: SerialExecutor(3),
             "threads2": lambda: ThreadTileExecutor(2)}
#: a step moves a particle at most half a cell
DT = 0.5 / constants.C_LIGHT


def build(n_cell, tile_size, periodic, populations, seed):
    """Grid with random E/B + a container holding ``populations[i]``
    particles inside tile ``i``'s box, with random momenta and weights."""
    config = GridConfig(
        n_cell=n_cell, hi=tuple(float(n) for n in n_cell),
        tile_size=tile_size,
        particle_boundary=tuple("periodic" if p else "absorbing"
                                for p in periodic),
        field_boundary=tuple("periodic" if p else "pec" for p in periodic))
    rng = np.random.default_rng(seed)
    grid = Grid(config)
    for name in FIELD_NAMES:
        scale = 1.0e5 if name.startswith("e") else 1.0e-3
        getattr(grid, name)[...] = rng.normal(0.0, scale, grid.shape)
    container = ParticleContainer(config, SpeciesConfig())
    first = 0
    for tile, n in zip(container.tiles, populations):
        pos = rng.uniform(tile.cell_lo, tile.cell_hi, (n, 3))
        mom = rng.normal(0.0, 0.5 * constants.C_LIGHT, (n, 3))
        tile.append(x=pos[:, 0], y=pos[:, 1], z=pos[:, 2], ux=mom[:, 0],
                    uy=mom[:, 1], uz=mom[:, 2], w=rng.uniform(0.5, 1.5, n),
                    ids=np.arange(first, first + n))
        first += n
    return grid, container


def jump(container, seed, share):
    """Send a ``share`` of the particles up to two domain widths away
    (several tiles, across periodic seams, out through open walls)."""
    rng = np.random.default_rng(seed)
    extent = np.array(container.grid_config.n_cell, dtype=float)
    for tile in container.tiles:
        far = rng.random(tile.num_particles) < share
        for axis, name in enumerate("xyz"):
            coords = getattr(tile, name).copy()
            coords[far] += rng.uniform(-2.0, 2.0, int(far.sum())) \
                * extent[axis]
            setattr(tile, name, coords)


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


def mark_sorters(container):
    """A distinct stand-in sort state on every tile."""
    marks = [object() for _ in container.tiles]
    for tile, mark in zip(container.tiles, marks):
        tile.sorter = mark
    return marks


def kept_sorters(container, marks):
    kept = [tile.sorter is mark for tile, mark in zip(container.tiles, marks)]
    assert all(tile.sorter is None for tile, keep in zip(container.tiles, kept)
               if not keep)
    return kept


@st.composite
def scenarios(draw):
    n_cell, tile_size = draw(st.sampled_from(LAYOUTS))
    num_tiles = int(np.prod([-(-n // t) for n, t in zip(n_cell, tile_size)]))
    populations = draw(st.lists(
        st.one_of(st.just(0), st.integers(1, 600)),
        min_size=num_tiles, max_size=num_tiles))
    return dict(
        n_cell=n_cell, tile_size=tile_size, populations=populations,
        periodic=draw(st.tuples(st.booleans(), st.booleans(),
                                st.booleans())),
        seed=draw(st.integers(0, 2**31)))


class TestBatchedStagesMatchThePerTileOracle:
    @settings(max_examples=40, deadline=None)
    @given(scenario=scenarios(), order=st.integers(1, 3),
           share=st.sampled_from([0.0, 0.05, 0.5]),
           run_particles=st.sampled_from([1, 700, RUN_PARTICLES]))
    def test_push_boundary_and_migration(self, scenario, order, share,
                                         run_particles):
        # the oracle, stage by stage
        grid, oracle = build(**scenario)
        oracle_push(oracle, grid, DT, order)
        pushed = snapshot(oracle)
        jump(oracle, scenario["seed"], share)
        absorbed = oracle_apply_boundary_conditions(oracle, grid)
        bounded = snapshot(oracle)
        marks = mark_sorters(oracle)
        calls = []
        moved = oracle_redistribute(
            oracle, grid, lambda tile_id, owners: calls.append(
                (type(tile_id), tile_id, owners.tolist())))
        kept = kept_sorters(oracle, marks)

        for name, make_executor in EXECUTORS.items():
            _, batched = build(**scenario)
            with make_executor() as executor:
                with mock.patch.object(pusher, "RUN_PARTICLES",
                                       run_particles):
                    BorisPusher(order).push(batched, grid, DT,
                                            executor=executor)
                assert_same_tiles(pushed, batched)
                jump(batched, scenario["seed"], share)
                assert batched.apply_boundary_conditions(
                    grid, executor=executor) == absorbed, name
                assert_same_tiles(bounded, batched)
                marks = mark_sorters(batched)
                mine = []
                assert batched.redistribute(
                    grid, executor=executor,
                    move_recorder=lambda tile_id, owners: mine.append(
                        (type(tile_id), tile_id, owners.tolist()))
                ) == moved, name
            assert_same_tiles(snapshot(oracle), batched)
            assert mine == calls, name
            assert kept_sorters(batched, marks) == kept, name

    @pytest.mark.parametrize("order", [1, 3])
    def test_a_tile_of_run_size_is_pushed_alone(self, order):
        # a 5000-particle tile between small ones: its own run, no copy
        populations = [300, 5000, 0, 200, 4096, 100, 50, 20]
        grid, oracle = build((8, 8, 8), (4, 4, 4), (True, False, True),
                             populations, seed=12)
        oracle_push(oracle, grid, DT, order)
        _, batched = build((8, 8, 8), (4, 4, 4), (True, False, True),
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
        runs = []
        for wrap in (oracle_apply_boundary_conditions,
                     ParticleContainer.apply_boundary_conditions):
            config = GridConfig(n_cell=(8, 4, 4), lo=(lo, 0.0, 0.0),
                                hi=(lo + extent, 4.0, 4.0),
                                tile_size=(4, 4, 4))
            container = ParticleContainer(config, SpeciesConfig())
            for tile in container.tiles:
                n = offsets.shape[0]
                tile.append(x=lo + offsets, y=np.full(n, 1.5),
                            z=np.full(n, 2.5), ids=np.arange(n))
            assert wrap(container, Grid(config)) == 0
            runs.append(snapshot(container))
        oracle, batched = runs
        for tile_arrays, want in zip(oracle, batched):
            for got, expected in zip(tile_arrays, want):
                assert np.array_equal(np.signbit(got), np.signbit(expected))
                assert np.array_equal(got, expected, equal_nan=True)


class TestRuns:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 3 * RUN_PARTICLES), max_size=40))
    def test_runs_are_consecutive_and_just_large_enough(self, populations):
        tiles = []
        for n in populations:
            tile = ParticleTile((0, 0, 0), (0, 0, 0), (1, 1, 1))
            tile.x = np.empty(n)
            tiles.append(tile)
        runs = list(tile_runs(tiles))
        assert [tile for run in runs for tile in run] == tiles
        for index, run in enumerate(runs):
            held = [tile.num_particles for tile in run]
            assert run
            # a tile of run size is alone; a run stops as soon as it is full
            assert len(run) == 1 or max(held) < RUN_PARTICLES
            assert sum(held[:-1]) < RUN_PARTICLES
            if index + 1 < len(runs):
                assert (sum(held) >= RUN_PARTICLES
                        or runs[index + 1][0].num_particles >= RUN_PARTICLES)


@pytest.mark.parametrize("order", [1, 3])
def test_a_run_reaching_far_outside_takes_the_fallback_as_a_whole(order):
    """One particle more than a stencil width outside the domain leaves
    the run's box unbounded: every particle of the run — not only that
    tile's — is gathered by ``StencilOperator.gather``."""
    grid, container = build((8, 8, 8), (4, 4, 4), (True, False, True),
                            [40] * 8, seed=21)
    container.tiles[3].x[0] = -40.0
    assert container.num_particles < RUN_PARTICLES  # one run
    x, y, z, ux, uy, uz = (
        np.concatenate([getattr(tile, name) for tile in container.tiles])
        for name in SOA[:6])
    operator = StencilOperator.for_grid(grid, x, y, z, order)
    assert operator.box_dims is None
    fields = [operator.gather(getattr(grid, name)) for name in FIELD_NAMES]
    for got, want in zip(gather_fields(grid, x, y, z, order), fields):
        assert np.array_equal(got, want)

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
    ``sorter``, or the deposit would follow a stale ordering.  A tile
    the migration does not touch keeps its state object, so no global
    sort is spent on it."""
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
    assert bystander.sorter is state
    assert sorter.ensure_tile_state(grid, bystander) is state
