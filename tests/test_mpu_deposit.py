"""Tests for the MPU outer-product deposition mapping (§4.2.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mpu_deposit import (
    build_cic_operands,
    build_qsp_operands,
    deposit_cell_cic_mpu,
    deposit_cell_qsp_mpu,
    pair_within_runs,
)
from repro.hardware.mpu import MatrixUnit
from repro.pic.deposition.base import prepare_tile_data
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
