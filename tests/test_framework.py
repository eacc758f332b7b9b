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
from repro.config import ExecutionConfig
from repro.core import gpma, sort_policy
from repro.core.framework import (
    MatrixPICDeposition,
    SORT_GLOBAL_EVERY_STEP,
    SORT_INCREMENTAL,
    SORT_NONE,
)
from repro.core.hybrid_kernel import HybridMPUDeposition
from repro.core.incremental_sort import TileSortState
from repro.exec import TileExecutor
from repro.pic.grid import Grid
from repro.workloads.lwfa import LWFAWorkload

from helpers import make_plasma, total_events
from sort_oracles import check_invariants


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
            check_invariants(tile.sorter.gpma)

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
        assert total_events(counters.phase("preprocess")) > 0
        assert counters.phase("compute").mpu_mopa > 0
        assert total_events(counters.phase("sort")) > 0
        assert total_events(counters.phase("reduce")) > 0
        assert counters.effective_flops > 0

    def test_adaptive_global_sort_triggered_by_interval(self, tiled_grid_config,
                                                        monkeypatch):
        grid, container = make_plasma(tiled_grid_config)
        monkeypatch.setattr(sort_policy, "SORT_INTERVAL", 3)
        monkeypatch.setattr(sort_policy, "MIN_SORT_INTERVAL", 1)
        strategy = MatrixPICDeposition()
        for step in range(4):
            grid.zero_currents()
            strategy.run_step(grid, container, 1, step)
        assert strategy.global_sorts_performed >= 1
        # the rank counters were reset by the sort
        assert strategy.rank_stats.steps_since_sort < 4

    def test_counters_convert_with_the_strategy_cost_model(
            self, tiled_grid_config):
        grid, container = make_plasma(tiled_grid_config)
        strategy = MatrixPICDeposition()
        counters = strategy.run_step(grid, container, 1, 0)
        timing = strategy.cost_model.timing(counters)
        assert timing.total > 0.0

    def test_the_bench_reads_the_sorter_gap_fraction(self):
        # bench/sim.py sizes its GPMA builds from this attribute
        strategy = MatrixPICDeposition()
        assert strategy.sorting_config.gap_fraction == gpma.GAP_FRACTION


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
        for _ in range(2):
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
        built = []
        grid_init = Grid.__init__

        def counting_init(grid, *args, **kwargs):
            built.append(grid)
            grid_init(grid, *args, **kwargs)

        monkeypatch.setattr(Grid, "__init__", counting_init)
        with TileExecutor(ExecutionConfig(backend, 2)) as executor:
            sharded = self._deposit(shifted, name, executor)
        for got, ref in zip(sharded, one_shard):
            peak = np.abs(ref).max()
            assert peak > 0.0
            assert np.abs(got - ref).max() / peak < 1e-12
        # each shard builds its own scratch grid, every step
        assert len(built) == 4
