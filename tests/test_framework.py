"""Tests for the Matrix-PIC deposition framework and the named configurations."""

import numpy as np
import pytest

from repro.baselines.configs import (
    ABLATION_CONFIGS,
    CIC_COMPARISON_CONFIGS,
    QSP_COMPARISON_CONFIGS,
    available_configurations,
    make_strategy,
)
from repro.api import Session
from repro.baselines.gpu_model import GPUDepositionModel
from repro.config import ExecutionConfig, SortingPolicyConfig
from repro.core.framework import (
    MatrixPICDeposition,
    SORT_GLOBAL_EVERY_STEP,
    SORT_INCREMENTAL,
    SORT_NONE,
)
from repro.core.hybrid_kernel import HybridMPUDeposition
from repro.core.incremental_sort import TileSortState
from repro.exec import create_executor
from repro.hardware.cost_model import CostModel
from repro.pic.grid import Grid, scratch_grids
from repro.workloads.lwfa import LWFAWorkload

from helpers import make_plasma


class TestMatrixPICDeposition:
    def test_default_configuration(self):
        strategy = MatrixPICDeposition()
        assert strategy.sort_mode == SORT_INCREMENTAL
        assert isinstance(strategy.kernel, HybridMPUDeposition)

    def test_rejects_unknown_sort_mode(self):
        with pytest.raises(ValueError):
            MatrixPICDeposition(sort_mode="sometimes")

    def test_incremental_mode_attaches_gpma(self, tiled_grid_config):
        grid, container = make_plasma(tiled_grid_config)
        strategy = MatrixPICDeposition(sort_mode=SORT_INCREMENTAL)
        strategy.run_step(grid, container, 1, 0)
        for tile in container.nonempty_tiles():
            assert isinstance(tile.sorter, TileSortState)
            tile.sorter.gpma.check_invariants()

    def test_none_mode_leaves_tiles_unsorted(self, tiled_grid_config):
        grid, container = make_plasma(tiled_grid_config)
        strategy = MatrixPICDeposition(sort_mode=SORT_NONE)
        strategy.run_step(grid, container, 1, 0)
        for tile in container.nonempty_tiles():
            assert tile.sorter is None

    def test_global_every_step_sorts_storage(self, tiled_grid_config):
        grid, container = make_plasma(tiled_grid_config)
        rng = np.random.default_rng(0)
        for tile in container.nonempty_tiles():
            tile.permute(rng.permutation(tile.num_particles))
        strategy = MatrixPICDeposition(sort_mode=SORT_GLOBAL_EVERY_STEP)
        strategy.run_step(grid, container, 1, 0)
        for tile in container.nonempty_tiles():
            cells = tile.local_cell_ids(grid)
            assert np.all(np.diff(cells) >= 0)

    def test_counters_cover_all_phases(self, tiled_grid_config):
        grid, container = make_plasma(tiled_grid_config)
        strategy = MatrixPICDeposition()
        counters = strategy.run_step(grid, container, 1, 0)
        assert counters.phase("preprocess").total_events() > 0
        assert counters.phase("compute").mpu_mopa > 0
        assert counters.phase("sort").total_events() > 0
        assert counters.phase("reduce").total_events() > 0
        assert counters.effective_flops > 0

    def test_adaptive_global_sort_triggered_by_interval(self, tiled_grid_config):
        grid, container = make_plasma(tiled_grid_config)
        policy = SortingPolicyConfig(sort_interval=3, min_sort_interval=1)
        strategy = MatrixPICDeposition(sorting_config=policy)
        for step in range(4):
            grid.zero_currents()
            strategy.run_step(grid, container, 1, step)
        assert strategy.global_sorts_performed >= 1
        # the rank counters were reset by the sort
        assert strategy.rank_stats.steps_since_sort < 4

    def test_timing_helper(self, tiled_grid_config):
        grid, container = make_plasma(tiled_grid_config)
        strategy = MatrixPICDeposition(cost_model=CostModel())
        counters = strategy.run_step(grid, container, 1, 0)
        timing = strategy.timing(counters)
        assert timing.total > 0.0


class TestNamedConfigurations:
    def test_all_names_buildable(self):
        for name in available_configurations():
            strategy = make_strategy(name)
            assert strategy.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_strategy("TurboPIC")

    def test_config_lists_are_subsets(self):
        names = set(available_configurations())
        assert set(ABLATION_CONFIGS) <= names
        assert set(CIC_COMPARISON_CONFIGS) <= names
        assert set(QSP_COMPARISON_CONFIGS) <= names

    def test_sorting_modes_assigned_correctly(self):
        assert make_strategy("Baseline").sort_mode == SORT_NONE
        assert make_strategy("Baseline+IncrSort").sort_mode == SORT_INCREMENTAL
        assert make_strategy("Hybrid-GlobalSort").sort_mode == SORT_GLOBAL_EVERY_STEP
        assert make_strategy("MatrixPIC (FullOpt)").sort_mode == SORT_INCREMENTAL

    def test_kernels_assigned_correctly(self):
        assert isinstance(make_strategy("Matrix-only").kernel, HybridMPUDeposition)
        assert make_strategy("Matrix-only").kernel.mode == "matrix_only"
        assert make_strategy("Rhocell+IncrSort (VPU)").kernel.hand_tuned is True
        assert make_strategy("Rhocell").kernel.hand_tuned is False


class TestGPUModel:
    def test_efficiency_in_expected_range(self):
        model = GPUDepositionModel()
        eff = model.peak_efficiency(1_000_000, order=3, particles_per_cell=512)
        # the paper reports 29.76 % for the A800 CUDA baseline
        assert 0.15 < eff < 0.45

    def test_zero_particles(self):
        model = GPUDepositionModel()
        assert model.kernel_seconds(0, 3, 512) == 0.0
        assert model.peak_efficiency(0, 3, 512) == 0.0

    def test_conflicts_reduce_efficiency(self):
        model = GPUDepositionModel()
        low = model.peak_efficiency(10**6, 3, particles_per_cell=1)
        high = model.peak_efficiency(10**6, 3, particles_per_cell=512)
        assert high < low

    def test_throughput_positive(self):
        model = GPUDepositionModel()
        assert model.throughput(10**6, 1, 64) > 0.0


class TestShardedDepositOnMovedWindow:
    """Sharded MatrixPIC scratch must carry the *live* window geometry."""

    @pytest.fixture(scope="class")
    def shifted(self):
        session = Session.from_workload(LWFAWorkload(
            n_cell=(8, 8, 32), tile_size=(8, 8, 16), ppc=8, max_steps=200))
        while session.moving_window.total_shift_cells == 0:
            session.step()
        return session

    @staticmethod
    def _deposit(simulation, name, executor):
        grid = simulation.grid
        strategy = make_strategy(name)
        for _ in range(2):  # two steps: the second must reuse the scratch
            grid.zero_currents()
            strategy.run_step(grid, simulation.containers[0],
                              simulation.config.shape_order,
                              simulation.step_index, executor=executor)
        return [array.copy() for array in grid.current_arrays()]

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    @pytest.mark.parametrize("name", ["Hybrid-noSort", "MatrixPIC (FullOpt)"])
    def test_two_shards_match_one_shard(self, shifted, name, backend,
                                        monkeypatch):
        one_shard = self._deposit(shifted, name, None)
        scratch_grids.clear()
        built = []
        grid_init = Grid.__init__

        def counting_init(grid, *args, **kwargs):
            built.append(grid)
            grid_init(grid, *args, **kwargs)

        monkeypatch.setattr(Grid, "__init__", counting_init)
        with create_executor(ExecutionConfig(backend, 2)) as executor:
            sharded = self._deposit(shifted, name, executor)
        for got, ref in zip(sharded, one_shard):
            peak = np.abs(ref).max()
            assert peak > 0.0
            assert np.abs(got - ref).max() / peak < 1e-12
        # the shard scratch is leased from the pool: two grids built on the
        # first step, none on the second
        assert len(built) == 2
