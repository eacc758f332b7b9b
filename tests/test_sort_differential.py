"""Differential tests: the array-native sorter against its scalar oracles.

``repro.core``'s counting sort and ``GappedPMA`` contain no per-particle
Python; the implementations they replaced live in ``sort_oracles`` and
define the expected result slot for slot, because the slot a particle
lands in fixes the kernel's summation order and therefore J bitwise.
The session tests hold the sorter that adopts the migration regroup's
cell order and builds its GPMA lazily to the eager recompute path
(``sort_oracles.OracleIncrementalSorter``) over whole runs.  The scaling
tests at the bottom pin the other half of the contract: the work done in
the interpreter does not grow with the particle count.
"""

import dataclasses
import functools
import hashlib
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.baselines.configs import make_strategy
from repro.ckpt import capture_state
from repro.config import GridConfig
from repro.core import sort_policy
from repro.core.counting_sort import counting_sort_permutation
from repro.core.gpma import GappedPMA
from repro.core.incremental_sort import (
    REBUILD_EMPTY_RATIO,
    IncrementalSorter,
    TileSortState,
)
from repro.workloads.lwfa import LWFAWorkload
from repro.workloads.uniform import UniformPlasmaWorkload

from helpers import MATRIX_PIC_CONFIGS, hot_plasma_session, make_plasma
from sort_oracles import (
    OracleGappedPMA,
    OracleIncrementalSorter,
    bin_of,
    check_invariants,
    oracle_counting_sort_permutation,
)


# ----------------------------------------------------------------------
# counting sort
# ----------------------------------------------------------------------

class TestCountingSortAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=15), max_size=120))
    def test_same_permutation_and_counts(self, cells):
        cells = np.asarray(cells, dtype=np.int64)
        order, counts = counting_sort_permutation(cells, 16)
        oracle_order, oracle_counts = oracle_counting_sort_permutation(cells, 16)
        np.testing.assert_array_equal(order, oracle_order)
        np.testing.assert_array_equal(counts, oracle_counts)
        assert order.dtype == np.int64 and counts.dtype == np.int64

    def test_more_cells_than_a_16_bit_key_holds(self):
        rng = np.random.default_rng(5)
        num_cells = (1 << 16) + 40
        cells = rng.integers(0, num_cells, 500)
        cells[:40] = num_cells - 1 - np.arange(40)  # ids that would wrap
        order, counts = counting_sort_permutation(cells, num_cells)
        oracle_order, oracle_counts = oracle_counting_sort_permutation(
            cells, num_cells)
        np.testing.assert_array_equal(order, oracle_order)
        np.testing.assert_array_equal(counts, oracle_counts)


# ----------------------------------------------------------------------
# GPMA
# ----------------------------------------------------------------------

def gap_stacks(gpma):
    """Every bin's stack of empty slots, bottom first, as lists."""
    if isinstance(gpma, OracleGappedPMA):
        return [list(gpma._empty_slots[b]) for b in range(gpma.num_bins)]
    depths = np.diff(gpma.bin_offsets) - gpma.bin_lengths
    return [gpma._gap_stack[start: start + depth].tolist()
            for start, depth in zip(gpma.bin_offsets[:-1], depths)]


def assert_same_structure(gpma, oracle):
    np.testing.assert_array_equal(gpma.local_index, oracle.local_index)
    np.testing.assert_array_equal(gpma.bin_offsets, oracle.bin_offsets)
    np.testing.assert_array_equal(gpma.bin_lengths, oracle.bin_lengths)
    np.testing.assert_array_equal(gpma.iteration_order(),
                                  oracle.iteration_order())
    assert gpma.overflow == oracle.overflow
    assert gpma.num_particles == oracle.num_particles
    assert gpma.num_empty_slots == oracle.num_empty_slots
    assert gpma.rebuild_count == oracle.rebuild_count
    # the order future insertions will be handed their slots in
    assert gap_stacks(gpma) == gap_stacks(oracle)
    for particle in range(gpma.num_particles + len(gpma.overflow) + 2):
        assert bin_of(gpma, particle) == oracle.bin_of(particle)
    check_invariants(gpma)
    oracle.check_invariants()


def build_pair(bins, num_bins, gap_fraction=0.25):
    pair = [cls(num_bins, gap_fraction=gap_fraction)
            for cls in (GappedPMA, OracleGappedPMA)]
    stats = [g.build(np.asarray(bins, dtype=np.int64)) for g in pair]
    assert stats[0] == stats[1]
    assert_same_structure(*pair)
    return pair


def move_pair(gpma, oracle, bins, particles, targets,
              rebuild_empty_ratio=0.02):
    """One ``incremental_update_tile`` worth of work on both structures.

    Returns the array-native update's stats and whether the step ended in
    a local rebuild; ``bins`` is updated in place.
    """
    particles = np.asarray(particles, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    stats = gpma.apply_moves(particles, targets)
    assert stats == oracle.apply_moves(particles, targets)
    assert_same_structure(gpma, oracle)
    bins[particles] = targets
    rebuilt = bool(gpma.overflow) or gpma.needs_rebuild(rebuild_empty_ratio)
    assert rebuilt == (bool(oracle.overflow)
                       or oracle.needs_rebuild(rebuild_empty_ratio))
    if rebuilt:
        assert gpma.build(bins) == oracle.build(bins)
        assert_same_structure(gpma, oracle)
    return stats, rebuilt


@st.composite
def gpma_scenarios(draw):
    num_bins = draw(st.integers(min_value=1, max_value=6))
    gap_fraction = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5]))
    bin_ids = st.integers(min_value=0, max_value=num_bins - 1)
    bins = draw(st.lists(bin_ids, min_size=1, max_size=40))
    batch = st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(bins) - 1), bin_ids),
        max_size=len(bins), unique_by=lambda move: move[0])
    batches = draw(st.lists(batch, max_size=6))
    return num_bins, gap_fraction, bins, batches


class TestGappedPMAAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=8),
           st.sampled_from([0.0, 0.1, 0.25, 0.5]),
           st.data())
    def test_build(self, num_bins, gap_fraction, data):
        bins = data.draw(st.lists(
            st.integers(min_value=0, max_value=num_bins - 1), max_size=60))
        build_pair(bins, num_bins, gap_fraction)

    @settings(max_examples=150, deadline=None)
    @given(gpma_scenarios())
    def test_move_batches(self, scenario):
        """Random batches, tight gap reserves included: whichever of pop,
        borrow, overflow and rebuild a batch hits, both structures agree."""
        num_bins, gap_fraction, bins, batches = scenario
        gpma, oracle = build_pair(bins, num_bins, gap_fraction)
        bins = np.asarray(bins, dtype=np.int64)
        for batch in batches:
            move_pair(gpma, oracle, bins,
                      [move[0] for move in batch], [move[1] for move in batch])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=5),
                    min_size=1, max_size=30), st.data())
    def test_single_deletes_and_inserts(self, bins, data):
        """The scalar entry points, ids beyond the last build included."""
        gpma, oracle = build_pair(bins, 6, gap_fraction=0.1)
        for _ in range(data.draw(st.integers(min_value=0, max_value=25))):
            particle = data.draw(st.integers(min_value=0,
                                             max_value=len(bins) + 6))
            if oracle.bin_of(particle) is not None:
                assert gpma.delete(particle) == oracle.delete(particle)
            else:
                b = data.draw(st.integers(min_value=0, max_value=5))
                assert gpma.insert(particle, b) == oracle.insert(particle, b)
            assert_same_structure(gpma, oracle)

    def test_batch_that_borrows(self):
        # two particles arrive in bin 0, which holds a single gap
        bins = np.array([0, 0, 1, 1, 1, 2, 2])
        gpma, oracle = build_pair(bins, 3, gap_fraction=0.0)
        stats, rebuilt = move_pair(gpma, oracle, bins, [4, 5], [0, 0],
                                   rebuild_empty_ratio=0.0)
        assert stats.borrow_shifts > 0
        assert not gpma.overflow and not rebuilt
        # the borrowed slot is handed back LIFO when the arrival leaves again
        move_pair(gpma, oracle, bins, [5, 0], [2, 2], rebuild_empty_ratio=0.0)

    def test_batch_that_overflows_and_rebuilds(self):
        bins = np.array([0, 0, 1, 1])
        gpma, oracle = build_pair(bins, 2, gap_fraction=0.0)
        # bin 1 is the last bin and holds one gap: the first arrival takes
        # it, the second has nothing to borrow from and overflows
        stats, rebuilt = move_pair(gpma, oracle, bins, [0, 1], [1, 1])
        assert stats.insertions == 2
        assert rebuilt and gpma.rebuild_count == 2
        np.testing.assert_array_equal(gpma.bin_lengths, [0, 4])

    @pytest.mark.parametrize("gap_fraction", [0.25, 0.05])
    def test_window_shift_batch(self, gap_fraction):
        """Every particle of the tile shifts one cell in z at once."""
        rng = np.random.default_rng(11)
        nx, ny, nz = 4, 4, 8
        # a density ramp in z, so arrivals outnumber a bin's gaps somewhere
        iz = np.minimum(rng.integers(0, nz, 3000), rng.integers(0, nz, 3000))
        cells = (rng.integers(0, nx * ny, iz.size) * nz + iz).astype(np.int64)
        gpma, oracle = build_pair(cells, nx * ny * nz, gap_fraction)
        shifted = np.nonzero(cells % nz > 0)[0]
        stats, _ = move_pair(gpma, oracle, cells, shifted, cells[shifted] - 1)
        assert stats.deletions == shifted.size == stats.insertions
        # and once more on the result (stacks now hold freed slots)
        shifted = np.nonzero(cells % nz > 0)[0]
        move_pair(gpma, oracle, cells, shifted, cells[shifted] - 1)

    def test_apply_moves_rejects_bad_batches(self):
        gpma, _ = build_pair([0, 1, 2], 3)
        with pytest.raises(KeyError):
            gpma.apply_moves([7], [0])          # never stored
        with pytest.raises(KeyError):
            gpma.apply_moves([1, 1], [0, 2])    # twice in one batch
        with pytest.raises(IndexError):
            gpma.apply_moves([1], [3])          # no such bin
        with pytest.raises(ValueError):
            gpma.apply_moves([1, 2], [0])
        check_invariants(gpma)                  # nothing was applied
        assert gpma.num_particles == 3


class TestLazyBuild:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=8),
           st.sampled_from([0.0, 0.01, 0.25, 0.5]),
           st.data())
    def test_equals_the_eager_build(self, num_bins, gap_fraction, data):
        """A fresh state's GPMA, built on first use from its sorted bins,
        is the structure an eager build makes; before the build its
        iteration order and slot count already are."""
        bins = np.sort(np.asarray(data.draw(st.lists(
            st.integers(min_value=0, max_value=num_bins - 1), max_size=60)),
            dtype=np.int64))
        eager = GappedPMA(num_bins, gap_fraction=gap_fraction)
        eager.build(bins)
        state = TileSortState(bins, np.bincount(bins, minlength=num_bins),
                              GappedPMA(num_bins, gap_fraction=gap_fraction))
        np.testing.assert_array_equal(state.iteration_order(),
                                      eager.iteration_order())
        assert state.fresh_capacity == eager.capacity

        lazy = state.gpma
        np.testing.assert_array_equal(lazy.local_index, eager.local_index)
        np.testing.assert_array_equal(lazy.bin_offsets, eager.bin_offsets)
        np.testing.assert_array_equal(lazy.bin_lengths, eager.bin_lengths)
        assert gap_stacks(lazy) == gap_stacks(eager)
        assert lazy.rebuild_count == 0
        check_invariants(lazy)
        np.testing.assert_array_equal(state.iteration_order(),
                                      eager.iteration_order())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.data())
    def test_a_fresh_structure_never_needs_the_reserve_rebuild(
            self, num_bins, data):
        """At ``GAP_FRACTION`` a fresh build is at least a fifth gaps, so
        the sorter charges no reserve rebuild right after a global sort."""
        bins = np.asarray(data.draw(st.lists(
            st.integers(min_value=0, max_value=num_bins - 1), max_size=60)),
            dtype=np.int64)
        fresh = GappedPMA(num_bins)
        fresh.build(bins)
        assert fresh.empty_ratio >= 0.2
        assert not fresh.needs_rebuild(REBUILD_EMPTY_RATIO)


# ----------------------------------------------------------------------
# whole sessions: adopting the regroup's order equals the recompute path
# ----------------------------------------------------------------------

#: a policy that re-sorts within a few steps, so its decisions are
#: compared: the ``repro.core.sort_policy`` constants it patches
QUICK_POLICY = dict(SORT_INTERVAL=3, MIN_SORT_INTERVAL=2)


def uniform_qsp():
    return UniformPlasmaWorkload(n_cell=(8, 8, 16), tile_size=(8, 8, 8),
                                 ppc=8, shape_order=3, max_steps=100)


def lwfa():
    return LWFAWorkload(n_cell=(8, 8, 32), tile_size=(8, 8, 16), ppc=8,
                        max_steps=100)


def one_tile():
    """One tile spans the periodic box, so no step migrates a particle;
    run hot (:func:`hot_plasma_session`), so particles change cells
    every step."""
    return UniformPlasmaWorkload(n_cell=(8, 8, 8), tile_size=(8, 8, 8),
                                 ppc=8, shape_order=1, max_steps=100)


def record_sorter(sorter, log):
    """Log every per-tile call's ``StepSortStats``, in call order."""
    for name in ("global_sort_tile", "incremental_update_tile"):
        method = getattr(sorter, name)

        @functools.wraps(method)
        def recorded(*args, _method=method, _name=name, **kwargs):
            stats = _method(*args, **kwargs)
            log.append((_name, dataclasses.asdict(stats)))
            return stats
        setattr(sorter, name, recorded)


def trajectory(workload, config_name, sorter_cls, steps, hot=False):
    """Per step: the state digest, the counters, the sort statistics of
    every tile visit, the rank statistics and the policy's decision; a
    ``hot`` run's plasma is at 0.3c."""
    strategy = make_strategy(config_name)
    strategy.sorter = sorter_cls()
    visits = []
    record_sorter(strategy.sorter, visits)
    rows = []
    build = hot_plasma_session if hot else Session.from_workload
    with build(workload, deposition=strategy) as session:
        if hasattr(workload, "scramble_particles"):
            workload.scramble_particles(session.simulation)
        for _ in range(steps):
            session.step()
            _, arrays = capture_state(session.simulation)
            digest = hashlib.sha256()
            # the run's state, not the sorter's own (each sorter keeps
            # its structure its way)
            for name in sorted(name for name in arrays
                               if ".sort." not in name):
                digest.update(name.encode("ascii"))
                digest.update(arrays[name].tobytes())
            counters = session.simulation.deposition_counters
            rows.append(dict(
                digest=digest.hexdigest(),
                counters={phase: c.as_dict()
                          for phase, c in sorted(counters.phases.items())},
                visits=list(visits),
                rank=dict(vars(strategy.rank_stats)),
                global_sorts=strategy.global_sorts_performed,
                trigger=strategy.policy.last_trigger,
            ))
            visits.clear()
        shifts = session.moving_window.total_shift_cells
    return rows, shifts


def assert_same_trajectory(workload, config_name, steps, hot=False):
    with mock.patch.multiple(sort_policy, **QUICK_POLICY):
        mine, shifts = trajectory(workload(), config_name, IncrementalSorter,
                                  steps, hot)
        oracle, _ = trajectory(workload(), config_name,
                               OracleIncrementalSorter, steps, hot)
    for step, (got, want) in enumerate(zip(mine, oracle)):
        assert got == want, (config_name, step)
    return mine, shifts


class TestAdoptionEqualsTheRebuild:
    @pytest.mark.parametrize("config_name", MATRIX_PIC_CONFIGS)
    def test_uniform_qsp(self, config_name):
        assert_same_trajectory(uniform_qsp, config_name, 4)

    @pytest.mark.parametrize("config_name", MATRIX_PIC_CONFIGS)
    def test_lwfa_with_window_shifts(self, config_name):
        _, shifts = assert_same_trajectory(lwfa, config_name, 8)
        assert shifts >= 5

    @pytest.mark.parametrize("config_name", MATRIX_PIC_CONFIGS)
    def test_steps_without_migration(self, config_name):
        """The lazily built GPMA takes the moves: an incremental visit
        that moves particles, on a state no global sort made that step."""
        rows, _ = assert_same_trajectory(one_tile, config_name, 3, hot=True)
        updates = [stats for row in rows for name, stats in row["visits"]
                   if name == "incremental_update_tile"]
        if make_strategy(config_name).sort_mode == "incremental":
            assert any(stats["global_sorts"] == 0
                       and stats["moved_particles"] > 0
                       for stats in updates)


# ----------------------------------------------------------------------
# interpreter work does not scale with the particle count
# ----------------------------------------------------------------------

def interpreter_work(fn):
    """(function calls, executed lines) of ``fn()``: Python and C calls
    from ``sys.setprofile``, lines from ``sys.settrace`` — a loop over
    particles shows in at least one of them even when its body is all
    subscripts."""
    counts = {"calls": 0, "lines": 0}

    def profiler(frame, event, arg):
        if event in ("call", "c_call"):
            counts["calls"] += 1

    def tracer(frame, event, arg):
        if event == "line":
            counts["lines"] += 1
        return tracer

    old_profile, old_trace = sys.getprofile(), sys.gettrace()
    sys.setprofile(profiler)
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(old_trace)
        sys.setprofile(old_profile)
    return counts["calls"], counts["lines"]


def scrambled_tile(ppc):
    """One 8x8x8-cell tile holding 512 * prod(ppc) particles, unsorted."""
    config = GridConfig(n_cell=(8, 8, 8), hi=(8.0e-6,) * 3, tile_size=(8, 8, 8))
    grid, container = make_plasma(config, ppc=ppc)
    (tile,) = container.nonempty_tiles()
    tile.permute(np.random.default_rng(1).permutation(tile.num_particles))
    return grid, tile


class TestInterpreterWorkIsConstant:
    SIZES = {1024: (2, 1, 1), 16384: (4, 4, 2)}

    def test_global_sort(self):
        work = {}
        for n, ppc in self.SIZES.items():
            grid, tile = scrambled_tile(ppc)
            assert tile.num_particles == n
            sorter = IncrementalSorter()
            work[n] = interpreter_work(
                lambda: sorter.global_sort_tile(grid, tile))
            assert np.all(np.diff(tile.local_cell_ids(grid)) >= 0)
        assert work[1024] == work[16384]

    def test_counting_sort_and_build(self):
        work = {}
        for n in self.SIZES:
            cells = np.random.default_rng(n).integers(0, 512, n)
            work[n] = (
                interpreter_work(lambda: counting_sort_permutation(cells, 512)),
                interpreter_work(lambda: GappedPMA(512).build(cells)),
            )
        assert work[1024] == work[16384]

    def test_gap_sufficient_apply_moves(self):
        work = {}
        for n in self.SIZES:
            cells = np.arange(n, dtype=np.int64) % 128
            gpma = GappedPMA(128, gap_fraction=0.25)
            gpma.build(cells)
            # an eighth of every bin moves one bin up: fits the 25 % reserve
            moved = np.nonzero(np.arange(n) // 128 % 8 == 0)[0]
            targets = (cells[moved] + 1) % 128
            stats = []
            work[n] = interpreter_work(
                lambda: stats.append(gpma.apply_moves(moved, targets)))
            assert stats[0].insertions == moved.size == n // 8
            assert stats[0].borrow_shifts == 0 and not gpma.overflow
            check_invariants(gpma)
        assert work[1024] == work[16384]
