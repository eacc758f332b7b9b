"""Tests for the MPU outer-product deposition mapping (§4.2.1).

The pair-by-pair mapping (``tests/mpu_oracles.py``) is checked against a
scalar sum; the production Stage 2, ``tile_rhocells``, is held to two
independent oracles: the per-particle formulation it replaced
(``tests/deposit_oracles.py``) and that per-pair MOPA emulator."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deposit_oracles import (
    oracle_masked_fold,
    oracle_tile_rhocells,
    pair_within_runs,
)
from helpers import make_plasma
from mpu_oracles import (
    MatrixUnit,
    build_cic_operands,
    build_qsp_operands,
    deposit_cell_cic_mpu,
    deposit_cell_qsp_mpu,
    emulated_tile_rhocells,
)
from repro.core.framework import (
    SORT_GLOBAL_EVERY_STEP,
    SORT_INCREMENTAL,
    MatrixPICDeposition,
)
from repro.core.hybrid_kernel import HybridMPUDeposition
from repro.core.mpu_deposit import (
    BLOCK_ROWS,
    _fold_blocks,
    mpu_work_statistics,
    tile_rhocells,
)
from repro.hardware.counters import KernelCounters
from repro.pic.blocks import cell_block_slots
from repro.pic.deposition.base import (
    TileDepositionData,
    cell_switch_fraction,
    prepare_tile_data,
    run_switch_fraction,
)
from repro.pic.deposition.rhocell import (
    accumulate_rhocells,
    scatter_rhocell_blocks,
)
from repro.pic.shapes import shape_factors


def reference_cell_contrib(wx, wy, wz, wq):
    """Scalar reference: sum over particles of wq * sx_i * sy_j * sz_k."""
    wx, wy, wz = np.atleast_2d(wx), np.atleast_2d(wy), np.atleast_2d(wz)
    wq = np.atleast_1d(wq)
    support = wx.shape[1]
    out = np.zeros(support**3)
    for p in range(wx.shape[0]):
        tensor = wq[p] * np.einsum("i,j,k->ijk", wx[p], wy[p], wz[p])
        out += tensor.reshape(-1)
    return out


def random_shape_factors(n, order, seed=0):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, 1.0, n)
    _, w = shape_factors(positions, order)
    return w


class TestPairing:
    def test_empty(self):
        first, second, valid2, cells, runs = pair_within_runs(np.array([], dtype=int))
        assert first.size == 0 and runs == 0

    def test_sorted_sequence_pairs_within_cells(self):
        cells = np.array([0, 0, 0, 1, 1, 2])
        first, second, valid2, pair_cell, runs = pair_within_runs(cells)
        assert runs == 3
        np.testing.assert_array_equal(first, [0, 2, 3, 5])
        np.testing.assert_array_equal(second, [1, -1, 4, -1])
        np.testing.assert_array_equal(valid2, [True, False, True, False])
        np.testing.assert_array_equal(pair_cell, [0, 0, 1, 2])

    def test_unsorted_sequence_creates_many_runs(self):
        cells = np.array([0, 1, 0, 1, 0, 1])
        *_, runs = pair_within_runs(cells)
        assert runs == 6

    def test_every_particle_appears_exactly_once(self):
        rng = np.random.default_rng(1)
        cells = np.sort(rng.integers(0, 5, 37))
        first, second, valid2, _, _ = pair_within_runs(cells)
        covered = np.concatenate([first, second[valid2]])
        assert np.sort(covered).tolist() == list(range(37))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=50))
    def test_pairing_property(self, cells):
        cells = np.asarray(cells)
        first, second, valid2, pair_cell, runs = pair_within_runs(cells)
        covered = np.concatenate([first, second[valid2]])
        assert np.sort(covered).tolist() == list(range(len(cells)))
        # paired particles always share a cell
        np.testing.assert_array_equal(cells[first[valid2]],
                                      cells[second[valid2]])
        assert runs >= len(np.unique(cells))


class TestOperands:
    def test_cic_operand_lengths(self):
        a, b = build_cic_operands(np.ones((2, 2)), np.ones((2, 2)),
                                  np.ones((2, 2)), np.ones(2))
        assert a.shape == (4,)
        assert b.shape == (8,)

    def test_qsp_operand_lengths(self):
        a, b = build_qsp_operands(np.ones((2, 4)), np.ones((2, 4)), np.ones(2))
        assert a.shape == (8,)
        assert b.shape == (8,)

    def test_cic_outer_product_contains_both_particles(self):
        wx = random_shape_factors(2, 1, seed=3)
        wy = random_shape_factors(2, 1, seed=4)
        wz = random_shape_factors(2, 1, seed=5)
        wq = np.array([2.0, -1.5])
        a, b = build_cic_operands(wx, wy, wz, wq)
        tile = np.outer(a, b)
        # particle 1's block
        expected_p1 = wq[0] * np.einsum("i,j,k->ijk", wx[0], wy[0], wz[0])
        block1 = tile[0:2, 0:4]
        assert block1[0, 0] == pytest.approx(expected_p1[0, 0, 0])
        assert block1[1, 3] == pytest.approx(expected_p1[1, 1, 1])
        # particle 2's block
        expected_p2 = wq[1] * np.einsum("i,j,k->ijk", wx[1], wy[1], wz[1])
        block2 = tile[2:4, 4:8]
        assert block2[0, 0] == pytest.approx(expected_p2[0, 0, 0])


class TestPerCellMPU:
    @pytest.mark.parametrize("n_particles", [1, 2, 3, 8, 13])
    def test_cic_cell_matches_reference(self, n_particles):
        wx = random_shape_factors(n_particles, 1, seed=10)
        wy = random_shape_factors(n_particles, 1, seed=11)
        wz = random_shape_factors(n_particles, 1, seed=12)
        wq = np.random.default_rng(13).normal(size=n_particles)
        mpu = MatrixUnit()
        contrib = deposit_cell_cic_mpu(mpu, wx, wy, wz, wq)
        np.testing.assert_allclose(contrib,
                                   reference_cell_contrib(wx, wy, wz, wq),
                                   rtol=1e-12, atol=1e-14)

    def test_cic_mopa_count_is_half_particle_count(self):
        n = 10
        mpu = MatrixUnit()
        deposit_cell_cic_mpu(mpu, random_shape_factors(n, 1),
                             random_shape_factors(n, 1, 1),
                             random_shape_factors(n, 1, 2), np.ones(n))
        assert mpu.counters.mpu_mopa == 5.0
        # the tile stays resident: one zero + one read
        assert mpu.counters.mpu_tile_moves == 2.0

    @pytest.mark.parametrize("n_particles", [1, 2, 5])
    def test_qsp_cell_matches_reference(self, n_particles):
        wx = random_shape_factors(n_particles, 3, seed=20)
        wy = random_shape_factors(n_particles, 3, seed=21)
        wz = random_shape_factors(n_particles, 3, seed=22)
        wq = np.random.default_rng(23).normal(size=n_particles)
        mpu = MatrixUnit()
        contrib = deposit_cell_qsp_mpu(mpu, wx, wy, wz, wq)
        np.testing.assert_allclose(contrib,
                                   reference_cell_contrib(wx, wy, wz, wq),
                                   rtol=1e-12, atol=1e-14)

    def test_qsp_uses_one_mopa_per_pair(self):
        n = 6
        mpu = MatrixUnit()
        deposit_cell_qsp_mpu(mpu, random_shape_factors(n, 3),
                             random_shape_factors(n, 3, 1),
                             random_shape_factors(n, 3, 2), np.ones(n))
        assert mpu.counters.mpu_mopa == 3.0


class TestRhocellBuffer:
    def test_accumulate_and_reduce_shapes(self):
        jx, jy, jz = scatter_rhocell_blocks(
            np.array([1, 1]), 4, np.ones((2, 8)), np.zeros((2, 8)),
            np.zeros((2, 8)))
        assert jx.shape == jy.shape == jz.shape == (4, 8)
        assert jx[1].sum() == pytest.approx(16.0)
        assert np.nonzero(np.abs(jx).sum(axis=1))[0].tolist() == [1]
        assert not jy.any() and not jz.any()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            scatter_rhocell_blocks(np.array([0, 1]), 2, np.ones((1, 8)),
                                   np.ones((1, 8)), np.ones((1, 8)))

    def test_order2_rejected(self, plasma_small):
        grid, container = plasma_small
        tile = container.nonempty_tiles()[0]
        data = prepare_tile_data(grid, tile, container.charge, 2)
        with pytest.raises(ValueError):
            accumulate_rhocells(data, tile.num_cells)


# ----------------------------------------------------------------------
# the production Stage 2: stacked block products, held to the oracle
# ----------------------------------------------------------------------
K = BLOCK_ROWS


def staged_tile(cells, order, seed=0):
    """Synthetic Stage-1 output: random shape factors and currents for
    particles sitting in the given tile-local ``cells`` (storage order)."""
    cells = np.asarray(cells, dtype=np.int64)
    rng = np.random.default_rng(seed)
    n = cells.shape[0]
    weights = [shape_factors(rng.uniform(0.0, 1.0, n), order)[1]
               for _ in range(3)]
    currents = [rng.normal(size=n) for _ in range(3)]
    return restaged(order, cells, weights, currents)


def restaged(order, cells, weights, currents, rows=slice(None)):
    """Staging data over ``rows`` of the given per-particle arrays."""
    base = np.zeros(cells[rows].shape[0], dtype=np.int64)
    data = TileDepositionData(order, base, base, base,
                              *(w[rows] for w in weights),
                              *(c[rows] for c in currents))
    data._cell_ids = data._local_cell_ids = cells[rows]
    return data


def take(data, rows):
    """The same particles, restricted to / reordered by ``rows``."""
    return restaged(data.order, data.local_cell_ids,
                    (data.wx, data.wy, data.wz),
                    (data.wqx, data.wqy, data.wqz), rows)


def staged_rhocells(data, order_idx, num_cells):
    """``tile_rhocells`` of the synthetic staging ``data``: each piece
    stages its particles by taking them from ``data``."""
    return tile_rhocells(lambda rows: take(data, rows), data.local_cell_ids,
                         order_idx, num_cells, data.order)


def assert_equal_per_cell(got, want, cells):
    """Every component's rhocell of every cell in ``cells``, to
    summation order (relative to that cell's own largest entry)."""
    for g, w in zip(got, want):
        for cell in cells:
            np.testing.assert_allclose(
                g[cell], w[cell], rtol=1e-12,
                atol=1e-12 * float(np.max(np.abs(w[cell]))))


def within_cell_preserving_shuffle(cells, rng):
    """A processing order that interleaves the cells at random but keeps
    every cell's own particles in storage order."""
    keys = rng.random(cells.shape[0])
    for cell in np.unique(cells):
        members = np.nonzero(cells == cell)[0]
        keys[members] = np.sort(keys[members])
    return np.argsort(keys, kind="stable")


#: run lengths around the block size, where the padding logic can go wrong
RUN_LENGTHS = st.sampled_from([1, 2, 3, 5, K - 1, K, K + 1, 2 * K, 2 * K + 1])
CELL_RUNS = st.lists(st.tuples(st.integers(0, 11), RUN_LENGTHS), max_size=14)


def cell_sequence(runs, arrangement, seed):
    """Tile-local cells of ``(cell, run length)`` runs: as given, sorted
    or shuffled."""
    cells = np.repeat([cell for cell, _ in runs],
                      [length for _, length in runs]).astype(np.int64)
    if arrangement == "sorted":
        return np.sort(cells)
    if arrangement == "shuffled":
        return np.random.default_rng(seed).permutation(cells)
    return cells


class TestWorkStatistics:
    """``mpu_work_statistics`` counts pairs as the sum of ceil(run length
    / 2) and runs as cell changes + 1; the oracle pairs the particles
    (``pair_within_runs``) and takes the lengths.  The counts feed
    ``KernelCounters``, so they must be exactly equal."""

    @settings(max_examples=80, deadline=None)
    @given(runs=CELL_RUNS, order=st.sampled_from([1, 3]),
           arrangement=st.sampled_from(["sorted", "runs", "shuffled"]),
           seed=st.integers(0, 2**16))
    @example(runs=[], order=1, arrangement="runs", seed=0)
    @example(runs=[(4, 1)], order=3, arrangement="runs", seed=0)
    @example(runs=[(2, 3), (2, 5), (7, 1)], order=1, arrangement="runs",
             seed=0)
    def test_counts_equal_the_pairing_oracle(self, runs, order, arrangement,
                                             seed):
        cells = cell_sequence(runs, arrangement, seed)
        *_, want = oracle_tile_rhocells(staged_tile(cells, order, seed),
                                        np.arange(cells.shape[0]), 12)
        stats = mpu_work_statistics(cells, order)
        assert stats == want
        # the kernel's locality metric comes from the same run count,
        # exactly: it feeds KernelCounters
        assert run_switch_fraction(stats["runs"], cells.shape[0]) \
            == cell_switch_fraction(cells)


@settings(max_examples=60, deadline=None)
@given(extra=st.lists(st.integers(0, 5), max_size=20),
       width=st.sampled_from([3 * 2**3, 3 * 4**3]),
       seed=st.integers(0, 2**16))
def test_the_depth_run_fold_is_bitwise_the_masked_fold(extra, width, seed):
    # cells one to five blocks deep (and empty ones), the depth classes
    # interleaved across cell ids, as crowded cells beside sparse ones
    rng = np.random.default_rng(seed)
    depths = rng.permutation([1, 2, 3, 4, 5] + extra)
    counts = [rng.integers((d - 1) * K + 1, d * K + 1) if d else 0
              for d in depths]
    cells = np.repeat(np.arange(depths.shape[0]), counts)
    layout = cell_block_slots(rng.permutation(cells), depths.shape[0])
    assert set(layout.depth.tolist()) == {1, 2, 3, 4, 5}
    # block sums over six decades, so any other summation order rounds
    products = rng.normal(size=(layout.num_blocks, width)) \
        * 10.0 ** rng.integers(-3, 3, (layout.num_blocks, 1))
    got = _fold_blocks(products, layout)
    assert got.tobytes() == oracle_masked_fold(products, layout).tobytes()


class TestBlockProductAgainstOracle:
    NUM_CELLS = 12

    @settings(max_examples=60, deadline=None)
    @given(runs=CELL_RUNS, order=st.sampled_from([1, 3]),
           arrangement=st.sampled_from(["sorted", "runs", "shuffled"]),
           seed=st.integers(0, 2**16))
    def test_values_and_work_statistics(self, runs, order, arrangement, seed):
        cells = cell_sequence(runs, arrangement, seed)
        rng = np.random.default_rng(seed)
        data = staged_tile(cells, order, seed)
        order_idx = rng.permutation(cells.shape[0])
        for idx in (np.arange(cells.shape[0]), order_idx):
            *got, got_stats = staged_rhocells(data, idx, self.NUM_CELLS)
            *want, want_stats = oracle_tile_rhocells(data, idx,
                                                     self.NUM_CELLS)
            # the statistics feed KernelCounters: exact, keys included
            assert got_stats == want_stats
            scale = max(float(np.max(np.abs(w))) for w in want) or 1.0
            for g, w in zip(got, want):
                assert g.shape == (self.NUM_CELLS, (order + 1)**3)
                np.testing.assert_allclose(g, w, rtol=1e-13,
                                           atol=1e-13 * scale)
            # the second oracle: the per-pair MOPA emulator, cell by cell
            emulated, units = emulated_tile_rhocells(data, idx,
                                                     self.NUM_CELLS)
            assert_equal_per_cell(got, emulated, np.unique(cells))
            # cell-sorted, a run is a cell: the modelled MOPA stream is
            # the one the emulator executes, exactly
            if got_stats["runs"] == np.unique(cells).shape[0]:
                assert [unit.counters.mpu_mopa for unit in units] \
                    == [got_stats["mopa"]] * 3

    @pytest.mark.parametrize("order", [1, 3])
    def test_sorted_mopa_count_is_the_emulators(self, order):
        """4^3 cells x 27 particles, cell-sorted processing order: 14
        pairs per cell, 896 MOPAs per component both ways."""
        cells = np.random.default_rng(4).permutation(
            np.repeat(np.arange(64), 27))
        data = staged_tile(cells, order, seed=4)
        by_cell = np.argsort(cells, kind="stable")
        *got, stats = staged_rhocells(data, by_cell, 64)
        emulated, units = emulated_tile_rhocells(data, by_cell, 64)
        assert stats["mopa"] == 896.0
        assert [unit.counters.mpu_mopa for unit in units] == [896.0] * 3
        assert_equal_per_cell(got, emulated, np.arange(64))

    @pytest.mark.parametrize("order", [1, 3])
    def test_empty_tile_and_single_particle(self, order):
        for cells in ([], [4]):
            data = staged_tile(cells, order)
            idx = np.arange(len(cells))
            *got, got_stats = staged_rhocells(data, idx, 6)
            *want, want_stats = oracle_tile_rhocells(data, idx, 6)
            assert got_stats == want_stats
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("order", [1, 3])
    def test_cell_id_outside_the_tile_is_rejected(self, order):
        for cells in ([0, 6], [-1, 2]):
            data = staged_tile(cells, order)
            with pytest.raises(ValueError, match="local cell id out of range"):
                staged_rhocells(data, np.arange(2), 6)

    # the pinned numbers are the parent commit's (per-particle Stage 2)
    @pytest.mark.parametrize("order, scrambled, compute", [
        (1, False, dict(vpu_alu=9216.0, vpu_mem=12288.0, mpu_mopa=6144.0,
                        mpu_tile_moves=1536.0, bytes_near=92170.50256410256,
                        bytes_far=6133.497435897436,
                        effective_flops=413696.0)),
        (1, True, dict(vpu_alu=18409.5, vpu_mem=24546.0, mpu_mopa=12273.0,
                       mpu_tile_moves=12273.0, bytes_near=393215.53113553114,
                       bytes_far=392256.46886446886,
                       effective_flops=413696.0)),
        (3, False, dict(vpu_fma=98304.0, vpu_alu=9216.0, vpu_mem=12288.0,
                        mpu_mopa=6144.0, mpu_tile_moves=7680.0,
                        bytes_near=3686820.1025641025,
                        bytes_far=245339.89743589744,
                        effective_flops=1716224.0)),
        (3, True, dict(vpu_fma=98304.0, vpu_alu=18409.5, vpu_mem=24546.0,
                       mpu_mopa=12273.0, mpu_tile_moves=24546.0,
                       bytes_near=6291448.498168498,
                       bytes_far=6276103.501831502,
                       effective_flops=1716224.0)),
    ])
    def test_deposit_tile_charges_the_parents_counters(
            self, small_grid_config, order, scrambled, compute):
        grid, container = make_plasma(small_grid_config)
        tile = container.nonempty_tiles()[0]
        cells = tile.local_cell_ids(grid)
        ordering = (np.random.default_rng(3).permutation(tile.num_particles)
                    if scrambled else np.argsort(cells, kind="stable"))
        counters = KernelCounters()
        HybridMPUDeposition().deposit_tile(grid, tile, container.charge,
                                           order, counters, ordering=ordering)
        charged = {name: value for name, value
                   in counters.phase("compute").as_dict().items() if value}
        assert charged == compute


class TestCellLocality:
    """A cell's rhocell block is a function of that cell's own particle
    sequence and ``BLOCK_ROWS`` only — bit for bit."""

    NUM_CELLS = 9

    def tile(self, order, seed=5):
        rng = np.random.default_rng(seed)
        counts = [0, 1, K - 1, K, K + 1, 2 * K + 1, 3, 40, 2]
        cells = rng.permutation(np.repeat(np.arange(self.NUM_CELLS), counts))
        return staged_tile(cells, order, seed), rng

    @staticmethod
    def blocks(data, order_idx, num_cells):
        rho = staged_rhocells(data, order_idx, num_cells)[:3]
        return np.stack(rho, axis=1)           # (cell, component, node)

    @pytest.mark.parametrize("order", [1, 3])
    def test_other_cells_added_removed_or_reordered(self, order):
        data, rng = self.tile(order)
        cells = data.local_cell_ids
        n = cells.shape[0]
        full = self.blocks(data, np.arange(n), self.NUM_CELLS)
        for cell in (2, 4, 5, 7):
            mine = cells == cell
            # drop a random half of everybody else's particles
            keep = np.nonzero(mine | (rng.random(n) < 0.5))[0]
            fewer = take(data, keep)
            got = self.blocks(fewer, np.arange(keep.shape[0]),
                              self.NUM_CELLS)
            assert np.array_equal(got[cell], full[cell])
            # only this cell's particles left in the tile
            alone = take(data, np.nonzero(mine)[0])
            got = self.blocks(alone, np.arange(int(mine.sum())),
                              self.NUM_CELLS)
            assert np.array_equal(got[cell], full[cell])
            # everybody else reordered around this cell's fixed sequence
            others = np.nonzero(~mine)[0]
            rows = np.arange(n)
            rows[others] = rng.permutation(others)
            moved = take(data, rows)
            got = self.blocks(moved, np.arange(n), self.NUM_CELLS)
            assert np.array_equal(got[cell], full[cell])

    @pytest.mark.parametrize("order", [1, 3])
    def test_sorted_and_unsorted_processing_agree(self, order):
        data, rng = self.tile(order)
        cells = data.local_cell_ids
        by_cell = np.argsort(cells, kind="stable")
        interleaved = within_cell_preserving_shuffle(cells, rng)
        assert np.any(np.diff(cells[interleaved]) < 0)
        assert np.array_equal(
            self.blocks(data, by_cell, self.NUM_CELLS),
            self.blocks(data, interleaved, self.NUM_CELLS))
        # ... while a different within-cell sequence is a different sum
        reversed_cells = by_cell[::-1]
        assert not np.array_equal(
            self.blocks(data, by_cell, self.NUM_CELLS),
            self.blocks(data, reversed_cells, self.NUM_CELLS))


def test_a_sorted_deposit_takes_the_sorters_cell_ids(small_grid_config,
                                                     monkeypatch):
    """One cell-id pass per tile per deposit: the sorter's ids of the
    storage order reach the kernel, which derives none of its own."""
    grid, container = make_plasma(small_grid_config)
    derived = []
    derive = TileDepositionData._derive_cell_ids
    monkeypatch.setattr(TileDepositionData, "_derive_cell_ids",
                        lambda data: derived.append(data) or derive(data))
    for mode in (SORT_INCREMENTAL, SORT_GLOBAL_EVERY_STEP):
        MatrixPICDeposition(sort_mode=mode).run_step(grid, container, 3, 0)
    assert derived == []
    # ids handed in must be one per particle
    tile = container.nonempty_tiles()[0]
    with pytest.raises(ValueError, match="local cell ids"):
        HybridMPUDeposition().deposit_tile(
            grid, tile, container.charge, 3, KernelCounters(),
            local_cells=tile.local_cell_ids(grid)[1:])


def test_deposit_tile_never_materialises_per_particle_blocks(
        small_grid_config):
    """512 cells x 64 PPC, QSP: the three ``(n, 64)`` contribution arrays
    of the per-particle formulation alone are 1.5 KiB per particle (the
    oracle path peaks at 2.8 KiB); the block product stages 28 doubles."""
    grid, container = make_plasma(small_grid_config, ppc=(4, 4, 4))
    tile = container.nonempty_tiles()[0]
    n = tile.num_particles
    assert (tile.num_cells, n) == (512, 32768)
    kernel = HybridMPUDeposition()
    ordering = np.random.default_rng(0).permutation(n)
    tracemalloc.start()
    try:
        kernel.deposit_tile(grid, tile, container.charge, 3,
                            KernelCounters(), ordering=ordering)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * n
