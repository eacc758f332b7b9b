"""Cross-kernel equivalence tests.

Every instrumented deposition kernel — baseline, rhocell (both variants),
the hybrid MPU kernel, and every named evaluation configuration including
the fully-sorted Matrix-PIC framework — must add exactly the same current
to the grid as the uninstrumented scatter-add reference.  This is the
central correctness property of the reproduction.
"""

import numpy as np
import pytest

from repro.baselines.configs import available_configurations, make_strategy
from repro.core.hybrid_kernel import HybridMPUDeposition
from repro.hardware.counters import KernelCounters
from repro.pic.deposition.base import (
    cell_switch_fraction,
    effective_deposition_flops,
    prepare_tile_data,
)
from repro.pic.deposition.baseline import BaselineDeposition
from repro.pic.deposition.reference import deposit_reference
from repro.pic.deposition.rhocell import RhocellDeposition
from repro.pic.diagnostics import current_residual
from repro.pic.grid import Grid

from helpers import deposit_unsorted, make_plasma

KERNELS = {
    "baseline": BaselineDeposition(),
    "baseline-atomic": BaselineDeposition(use_atomics=True),
    "rhocell-auto": RhocellDeposition(hand_tuned=False),
    "rhocell-vpu": RhocellDeposition(hand_tuned=True),
    "mpu-hybrid": HybridMPUDeposition(mode="hybrid"),
    "mpu-matrix-only": HybridMPUDeposition(mode="matrix_only"),
}


def reference_current(grid_config, order, ppc=(2, 2, 2), seed=7):
    grid, container = make_plasma(grid_config, ppc=ppc, seed=seed)
    deposit_reference(grid, container, order)
    return grid


def kernel_current(kernel, grid_config, order, ppc=(2, 2, 2), seed=7):
    grid, container = make_plasma(grid_config, ppc=ppc, seed=seed)
    counters = deposit_unsorted(kernel, grid, container, order)
    return grid, counters, container


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_matches_reference(small_grid_config, name, order):
    reference = reference_current(small_grid_config, order)
    grid, counters, _ = kernel_current(KERNELS[name], small_grid_config, order)
    scale = np.max(np.abs(reference.jx)) or 1.0
    assert current_residual(grid, reference) / scale < 1e-12
    # every kernel reports non-trivial work
    assert counters.combined().total_events() > 0


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_matches_reference_multi_tile(tiled_grid_config, name, order):
    reference = reference_current(tiled_grid_config, order)
    grid, _, _ = kernel_current(KERNELS[name], tiled_grid_config, order)
    scale = np.max(np.abs(reference.jx)) or 1.0
    assert current_residual(grid, reference) / scale < 1e-12


def test_baseline_matches_reference_tsc(small_grid_config):
    """Order 2 is supported by the direct kernels (not the rhocell layout)."""
    reference = reference_current(small_grid_config, 2)
    grid, _, _ = kernel_current(BaselineDeposition(), small_grid_config, 2)
    scale = np.max(np.abs(reference.jx)) or 1.0
    assert current_residual(grid, reference) / scale < 1e-12


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("config_name", available_configurations())
def test_named_configuration_matches_reference(tiled_grid_config, config_name,
                                               order):
    """Every evaluation configuration (with its sorting) stays exact."""
    reference = reference_current(tiled_grid_config, order)
    grid, container = make_plasma(tiled_grid_config)
    strategy = make_strategy(config_name)
    counters = strategy.run_step(grid, container, order, step=0)
    scale = np.max(np.abs(reference.jx)) or 1.0
    assert current_residual(grid, reference) / scale < 1e-12
    assert isinstance(counters, KernelCounters)


def test_repeated_steps_stay_exact(tiled_grid_config):
    """Sorted strategies remain exact over several steps of particle motion."""
    grid, container = make_plasma(tiled_grid_config)
    strategy = make_strategy("MatrixPIC (FullOpt)")
    rng = np.random.default_rng(11)
    dt_like = 0.3 * grid.cell_size[0]
    for step in range(4):
        # move the particles a fraction of a cell, as the pusher would
        for tile in container.iter_tiles():
            if tile.num_particles == 0:
                continue
            tile.x += rng.normal(0.0, dt_like, tile.num_particles)
            tile.y += rng.normal(0.0, dt_like, tile.num_particles)
            tile.z += rng.normal(0.0, dt_like, tile.num_particles)
        container.apply_boundary_conditions(grid)
        container.redistribute(grid)

        reference = Grid(tiled_grid_config)
        deposit_reference(reference, container, 1)

        grid.zero_currents()
        strategy.run_step(grid, container, 1, step=step)
        scale = np.max(np.abs(reference.jx)) or 1.0
        assert current_residual(grid, reference) / scale < 1e-12


def test_hybrid_kernel_rejects_tsc(small_grid_config):
    grid, container = make_plasma(small_grid_config)
    with pytest.raises(ValueError):
        deposit_unsorted(HybridMPUDeposition(), grid, container, 2)


def test_hybrid_kernel_rejects_bad_mode():
    with pytest.raises(ValueError):
        HybridMPUDeposition(mode="gpu")


def test_hybrid_kernel_rejects_bad_ordering(small_grid_config):
    grid, container = make_plasma(small_grid_config)
    tile = container.nonempty_tiles()[0]
    n = tile.num_particles
    duplicate = np.arange(n)
    duplicate[1] = 0            # particle 0 twice, particle 1 never
    out_of_range = np.arange(n)
    out_of_range[-1] = n
    negative = np.arange(n)
    negative[0] = -1
    for ordering in (np.array([0, 1, 2]), duplicate, out_of_range, negative):
        before = grid.jx.copy()
        with pytest.raises(ValueError, match="ordering"):
            HybridMPUDeposition().deposit_tile(grid, tile, -1.0, 1,
                                               KernelCounters(),
                                               ordering=ordering)
        assert np.array_equal(grid.jx, before)


class TestCellSwitchFraction:
    def test_sorted_is_low(self):
        assert cell_switch_fraction(np.array([0, 0, 0, 1, 1, 1])) == pytest.approx(0.2)

    def test_alternating_is_one(self):
        assert cell_switch_fraction(np.array([0, 1, 0, 1])) == 1.0

    def test_short_sequences(self):
        assert cell_switch_fraction(np.array([])) == 0.0
        assert cell_switch_fraction(np.array([3])) == 0.0


class TestEffectiveFlops:
    def test_qsp_value_matches_paper(self):
        assert effective_deposition_flops(3) == 419.0

    def test_monotone_in_order(self):
        assert (effective_deposition_flops(1)
                < effective_deposition_flops(2)
                < effective_deposition_flops(3))

    def test_unknown_order(self):
        with pytest.raises(ValueError):
            effective_deposition_flops(7)


class TestInstrumentationStructure:
    def test_sorting_improves_modelled_locality(self, small_grid_config):
        """The sorted kernel observes a lower cell-switch fraction and its
        compute phase becomes cheaper than the unsorted one."""
        from repro.hardware.cost_model import CostModel

        grid_a, container_a = make_plasma(small_grid_config, ppc=(4, 4, 4))
        rng = np.random.default_rng(5)
        for tile in container_a.iter_tiles():
            if tile.num_particles:
                tile.permute(rng.permutation(tile.num_particles))
        unsorted_counters = deposit_unsorted(
            BaselineDeposition(), grid_a, container_a, 1)

        grid_b, container_b = make_plasma(small_grid_config, ppc=(4, 4, 4))
        strategy = make_strategy("Baseline+IncrSort")
        # two runs: the first performs the initial sort, the second is steady state
        strategy.run_step(grid_b, container_b, 1, step=0)
        grid_b.zero_currents()
        sorted_counters = strategy.run_step(grid_b, container_b, 1, step=1)

        model = CostModel()
        unsorted_time = model.timing(unsorted_counters)
        sorted_time = model.timing(sorted_counters)
        assert sorted_time.compute < unsorted_time.compute

    def test_tile_data_preparation(self, small_grid_config):
        grid, container = make_plasma(small_grid_config)
        tile = container.nonempty_tiles()[0]
        data = prepare_tile_data(grid, tile, container.charge, 1)
        assert data.num_particles == tile.num_particles
        assert data.wx.shape == (tile.num_particles, 2)
        np.testing.assert_allclose(data.wx.sum(axis=1), 1.0)
        assert data.support == 2
        # empty tile path
        empty = [t for t in container.iter_tiles() if t.num_particles == 0]
        if empty:
            empty_data = prepare_tile_data(grid, empty[0], container.charge, 1)
            assert empty_data.num_particles == 0
