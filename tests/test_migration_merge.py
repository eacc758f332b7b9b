"""The migration merges a small sorted batch into what stayed in order.

``ParticleContainer.redistribute`` takes the stayers whose key is the
one on their tile's record (group A) as already in key order and sorts
only the rest (group B: cell changers, arrivals, the window's pending
refill, every stayer of a tile with no usable record) before merging
the two.  Which particles land in A may change only the cost: the store,
the ids, the offsets, the cell ids handed to the sorter and the moved
count must equal the two-pass oracle — the refill inserted first
(``OracleContainer.add_particles``), then the per-tile boundary and
migration of ``tests/particle_oracles.py`` — bit for bit, whatever the
records say.  And the sorts the migration makes must cover B only.
"""

from __future__ import annotations

import copy
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import ExecutionConfig
from repro.core.incremental_sort import IncrementalSorter
from repro.exec import TileExecutor
from repro.pic import particles
from repro.pic.plasma import slab_particles
from repro.workloads.lwfa import LWFAWorkload

from helpers import tiled_plasma, tiled_scenarios
from particle_oracles import (
    OracleContainer,
    oracle_apply_boundary_conditions,
    oracle_redistribute,
)

SOA = ("x", "y", "z", "ux", "uy", "uz", "w", "ids")
EXECUTORS = {"serial1": ("serial", 1), "threads2": ("threads", 2)}
#: what a tile's sort state says about its particles before the push
RECORDS = ("none", "sorted", "unsorted", "arbitrary", "short")


def give_records(grid, container, kinds, rng):
    """A sort-state record of each kind on the tiles: a global sort's
    (the tile is left in cell order), the current cells of an unsorted
    order (as an incremental update leaves them), sorted cells that
    describe nothing, one of the wrong length, or none."""
    sorter = IncrementalSorter()
    for tile, kind in zip(container.tiles, kinds):
        n = tile.num_particles
        if kind == "sorted" and n:
            sorter.global_sort_tile(grid, tile)
        elif kind == "unsorted" and n:
            tile.sorter = SimpleNamespace(
                assigned_bins=tile.local_cell_ids(grid))
        elif kind == "arbitrary":
            tile.sorter = SimpleNamespace(assigned_bins=np.sort(
                rng.integers(0, tile.num_cells, n)))
        elif kind == "short" and n:
            tile.sorter = SimpleNamespace(
                assigned_bins=np.zeros(n - 1, dtype=np.int64))


def push(container, rng, changers, far):
    """Move a ``changers`` share up to a cell each way (in-tile cell
    changers and neighbour migrants) and a ``far`` share up to a domain
    width (several tiles, periodic seams, open walls)."""
    extent = np.array(container.grid_config.n_cell, dtype=float)
    for tile in container.tiles:
        n = tile.num_particles
        near = rng.random(n) < changers
        away = rng.random(n) < far
        for axis, name in enumerate("xyz"):
            coord = getattr(tile, name)
            coord[near] += rng.uniform(-1.0, 1.0, int(near.sum()))
            coord[away] += rng.uniform(-1.0, 1.0, int(away.sum())) \
                * extent[axis]


def shift_window(grid, shift):
    """The window's grid shift by ``shift`` unit cells along z."""
    grid.lo[2] += shift
    grid.hi[2] += shift


def refill(grid, container, shift, strays, rng):
    """The window's slab refill (all x-y tiles of the top layer) plus
    ``strays`` particles anywhere up to a cell past the domain."""
    batch = slab_particles(grid, container.species, grid.hi[2] - shift,
                           grid.hi[2], rng=rng)
    lo, hi = grid.lo - 1.0, grid.hi + 1.0
    pos = rng.uniform(lo, hi, (strays, 3))
    return {name: np.concatenate((batch.get(name, np.zeros(0)), extra))
            for name, extra in (("x", pos[:, 0]), ("y", pos[:, 1]),
                                ("z", pos[:, 2]),
                                ("ux", rng.normal(0.0, 1.0, strays)),
                                ("uy", rng.normal(0.0, 1.0, strays)),
                                ("uz", rng.normal(0.0, 1.0, strays)),
                                ("w", rng.uniform(0.5, 1.5, strays)))}


def tiles_of(container):
    return [tuple(getattr(tile, name).copy() for name in SOA)
            for tile in container.tiles]


def handoff(container):
    return [None if tile.sorted_cells is None else tile.sorted_cells.tolist()
            for tile in container.tiles]


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=tiled_scenarios(), data=st.data(),
       changers=st.sampled_from([0.0, 0.02, 0.3]),
       far=st.sampled_from([0.0, 0.05]), shift=st.integers(0, 2),
       strays=st.sampled_from([0, 40]))
def test_the_merge_equals_insert_then_migrate(scenario, data, changers, far,
                                              shift, strays):
    count = len(scenario["populations"])
    kinds = data.draw(st.lists(st.sampled_from(RECORDS), min_size=count,
                               max_size=count), label="records")
    keeps = data.draw(st.lists(st.booleans(), min_size=count,
                               max_size=count), label="keeps_cell_order")
    rng = np.random.default_rng(scenario["seed"])
    grid, start = tiled_plasma(**scenario)
    give_records(grid, start, kinds, rng)
    for tile, keep in zip(start.tiles, keeps):
        tile.keeps_cell_order = keep
    push(start, rng, changers, far)
    shift_window(grid, shift)
    added = refill(grid, start, shift, strays, rng)

    oracle = OracleContainer(start)
    oracle.add_particles(grid, **copy.deepcopy(added))
    absorbed = oracle_apply_boundary_conditions(oracle, grid)
    moved = oracle_redistribute(oracle, grid)
    counts = [tile.num_particles for tile in oracle.tiles]

    for name, (backend, shards) in EXECUTORS.items():
        container = copy.deepcopy(start)
        held = container.num_particles + len(added["x"])
        container.queue_refill(grid, shift, copy.deepcopy(added))
        with TileExecutor(ExecutionConfig(backend, shards)) as executor:
            assert container.redistribute(grid, executor) == moved, name
        assert container.num_particles == held - absorbed, name
        assert container.offsets.tolist() == [0, *np.cumsum(counts)], name
        for index, (want, got) in enumerate(zip(tiles_of(oracle),
                                                tiles_of(container))):
            for field, a, b in zip(SOA, want, got):
                assert a.dtype == b.dtype, (name, index, field)
                assert np.array_equal(a, b, equal_nan=True), \
                    (name, index, field)
        assert handoff(container) == handoff(oracle), name
        assert ([tile.sorter is None for tile in container.tiles]
                == [tile.sorter is None for tile in oracle.tiles]), name
        # the pending batch went into the store: a second migration of
        # the same positions moves nothing
        assert container.redistribute(grid, executor=None) == 0, name


# ----------------------------------------------------------------------
# the sorts cover the movers, not the store
# ----------------------------------------------------------------------

#: ``uniform-mpic``'s shape: two 8x8x8 tiles of 65 536 particles each
POPULATION = 65536
CHANGERS = 655
MIGRANTS = 7


def sorted_keys_of_one_migration():
    """Sizes of every ``np.argsort`` (``stable_order_by_bin`` included)
    one migration of a sorted two-tile store makes, and the number of
    in-tile cell changers plus arrivals it had."""
    grid, container = tiled_plasma((8, 8, 16), (8, 8, 8), (True, True, True),
                                   [POPULATION, POPULATION], seed=5)
    sorter = IncrementalSorter()
    for tile in container.tiles:
        sorter.global_sort_tile(grid, tile)
    rng = np.random.default_rng(6)
    for tile in container.tiles:
        lo = tile.cell_lo[0]
        changers = rng.choice(tile.num_particles, CHANGERS, replace=False)
        # one cell along x, inside the tile
        tile.x[changers] = np.where(tile.x[changers] - lo < 4.0,
                                    tile.x[changers] + 1.0,
                                    tile.x[changers] - 1.0)
        migrants = rng.choice(tile.num_particles, MIGRANTS, replace=False)
        tile.z[migrants] += 8.0
    sizes = []
    argsort = np.argsort

    def counting(keys, *args, **kwargs):
        sizes.append(len(keys))
        return argsort(keys, *args, **kwargs)

    with mock.patch.object(np, "argsort", counting):
        assert container.redistribute(grid) == 2 * MIGRANTS
    return sizes, 2 * (CHANGERS + MIGRANTS)


def test_the_migration_sorts_only_the_movers():
    sizes, movers = sorted_keys_of_one_migration()
    assert sizes and max(sizes) <= 2 * movers, (sizes, movers)


def test_a_planted_whole_span_sort_fails_the_guard():
    """Without records every stayer is in B: the B sort is the span."""
    with mock.patch.object(particles.ParticleContainer, "_expected_keys",
                           lambda self, tile_id, ordered, shift: np.full(
                               int(self.offsets[tile_id + 1]
                                   - self.offsets[tile_id]), -1)):
        sizes, movers = sorted_keys_of_one_migration()
    assert max(sizes) > 2 * movers
    assert max(sizes) >= 2 * POPULATION - 2 * CHANGERS


def test_the_refill_waits_for_the_migration_and_leaves_nothing_pending():
    grid, container = tiled_plasma((8, 8, 8), (4, 4, 4), (True, True, False),
                                   [50] * 8, seed=1)
    held = container.num_particles
    behind = int(np.count_nonzero(container.block[2] < 1.0))
    shift_window(grid, 1)
    batch = slab_particles(grid, container.species, grid.hi[2] - 1.0,
                           grid.hi[2], rng=np.random.default_rng(2))
    container.queue_refill(grid, 1, batch)
    assert container.num_particles == held
    container.redistribute(grid)
    assert container.num_particles == held - behind + len(batch["x"])
    assert container._pending[0].shape[1] == 0


def test_a_restore_drops_the_refill_a_failed_step_left_pending(tmp_path):
    """A step that dies between the window's shift and the migration
    leaves its refill pending.  Restoring a snapshot replaces the store,
    so it must drop that batch too: the next step then equals the same
    step from the snapshot in a fresh session (a stale batch would put a
    second slab, with ids past the restored counter, into the store)."""
    workload = LWFAWorkload(n_cell=(8, 8, 16), tile_size=(8, 8, 8), ppc=1,
                            max_steps=40)
    path = str(tmp_path / "snapshot.npz")
    with workload.build_session() as failed, \
            workload.build_session() as fresh:
        (container,) = failed.containers

        def die_before_migrating(stage, session):
            if stage.name == "migrate" and container._pending[0].shape[1]:
                raise RuntimeError("the step dies after the window's shift")

        hook = failed.pipeline.add_pre_hook(die_before_migrating)
        for _ in range(40):
            failed.save(path)
            try:
                failed.step()
            except RuntimeError:
                break
        assert container._pending[0].shape[1] > 0
        failed.pipeline.remove_hook(hook)
        failed.restore(path)
        fresh.restore(path)
        failed.step()
        fresh.step()
        (want,) = fresh.containers
        assert container.offsets.tolist() == want.offsets.tolist()
        assert np.array_equal(container.ids, want.ids)
        assert np.array_equal(container.block, want.block)
        assert container._next_id == want._next_id
        assert container.ids.max() < container._next_id
