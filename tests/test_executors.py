"""Tests for the tile executor subsystem (:mod:`repro.exec`).

The central property is the determinism contract: for a fixed shard
count, the serial and threaded backends partition tiles identically,
accumulate into private scratch buffers, and merge in shard
order — so deposited currents, charge densities and merged
:class:`~repro.hardware.counters.KernelCounters` are *bitwise identical*
across backends.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.config import ExecutionConfig
from repro.exec import (
    SUPPORTED_BACKENDS,
    SerialExecutor,
    SupervisedPool,
    ThreadTileExecutor,
    TileTask,
    create_executor,
    map_shards,
    partition_shards,
)
from repro.core.framework import MatrixPICDeposition, SORT_INCREMENTAL
from repro.pic.deposition.base import scratch_reduce
from repro.pic.deposition.baseline import BaselineDeposition
from repro.pic.deposition.reference import (
    deposit_reference,
    deposit_rho_reference,
)
from repro.pic.grid import scratch_grids
from repro.workloads.uniform import UniformPlasmaWorkload

from helpers import deposit_unsorted, make_plasma

SHARDS = 3


def _fresh_plasma(tiled_grid_config, seed=11):
    return make_plasma(tiled_grid_config, ppc=(2, 2, 2), seed=seed)


def _executors():
    return {
        "serial": SerialExecutor(SHARDS),
        "threads": ThreadTileExecutor(SHARDS),
    }


# ----------------------------------------------------------------------
# partitioning and configuration
# ----------------------------------------------------------------------
class TestPartitioning:
    def test_partition_covers_all_items_in_order(self):
        shards = partition_shards(10, 3)
        flat = [i for s in shards for i in s.tile_indices]
        assert flat == list(range(10))
        assert [s.index for s in shards] == [0, 1, 2]
        assert [s.num_tiles for s in shards] == [4, 3, 3]

    def test_partition_never_emits_empty_shards(self):
        assert [s.num_tiles for s in partition_shards(2, 5)] == [1, 1]
        assert partition_shards(0, 4) == []

    def test_partition_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            partition_shards(4, 0)

    def test_execution_config_validation(self):
        # one test id (not parametrized) so the id stays stable
        for kwargs, message in [
            (dict(backend="gpu"), "backend"),
            # the retired per-tile backend: the error names what is left
            (dict(backend="processes", num_shards=2),
             r"serial.*threads.*got 'processes'.*bitwise-identical"),
            # the shard count is validated, never coerced
            (dict(num_shards=0), "num_shards"),
            (dict(num_shards=2.7), "num_shards"),
            (dict(num_shards=True), "num_shards"),
            (dict(num_shards="3"), "num_shards"),
        ]:
            with pytest.raises(ValueError, match=message):
                ExecutionConfig(**kwargs)
        assert ExecutionConfig() == ExecutionConfig("serial", 1)
        assert SUPPORTED_BACKENDS == ("serial", "threads")

    def test_retired_backend_is_refused_at_every_door(self, capsys):
        # a durable spec payload journaled by an earlier build ...
        from repro.analysis.campaign import build_workload
        from repro.cli import build_parser

        with pytest.raises(ValueError, match="serial.*threads"):
            build_workload("uniform", {"ppc": 1, "execution": {
                "backend": "processes", "num_shards": 2}})
        # ... and the command line, whose choices are SUPPORTED_BACKENDS
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--backend", "processes"])
        assert "'serial', 'threads'" in capsys.readouterr().err
        args = build_parser().parse_args(["run", "--backend", "threads"])
        assert args.backend == "threads"

    def test_factory_builds_each_backend(self):
        for backend, cls in (("serial", SerialExecutor),
                             ("threads", ThreadTileExecutor)):
            executor = create_executor(
                ExecutionConfig(backend=backend, num_shards=2))
            assert isinstance(executor, cls)
            assert executor.num_shards == 2
            executor.shutdown()
        assert create_executor(None).is_trivial

    def test_executors_preserve_task_order(self):
        tasks = [TileTask(_identity, (i,)) for i in range(7)]
        for name, executor in _executors().items():
            with executor:
                assert executor.run(tasks) == list(range(7)), name


def _identity(value):
    return value


# ----------------------------------------------------------------------
# the one fan-out rule: map_shards and the grid scratch-reduce
# ----------------------------------------------------------------------
def _offset_shard(items, offset):
    return [item + offset for item in items]


def _reciprocal_shard(items):
    return [1 // item for item in items]


def _tile_index_body(target, tiles):
    return [tile.tile_index for tile in tiles]


def _raising_body(target, tiles, targets):
    targets.append(target)
    raise RuntimeError("shard body failed")


class TestMapShards:
    def test_unsharded_work_is_one_inline_call(self):
        calls = []

        def fn(items, tag):
            calls.append((threading.get_ident(), items))
            return tag

        with ThreadTileExecutor(1) as one, ThreadTileExecutor(SHARDS) as many:
            for executor, items in ((None, [1, 2, 3]), (one, [1, 2, 3]),
                                    (many, [7]), (many, [])):
                calls.clear()
                assert map_shards(executor, fn, items, "tag") == ["tag"]
                assert calls == [(threading.get_ident(), items)]

    def test_results_come_back_in_shard_order(self):
        for name, executor in _executors().items():
            with executor:
                assert map_shards(executor, _offset_shard, list(range(10)),
                                  100) == [[100, 101, 102, 103],
                                           [104, 105, 106],
                                           [107, 108, 109]], name

    def test_task_exception_propagates(self):
        for name, executor in _executors().items():
            with executor, pytest.raises(ZeroDivisionError):
                map_shards(executor, _reciprocal_shard, [1, 2, 0, 4])


class TestScratchReduce:
    def test_body_values_come_back_in_shard_order(self, tiled_grid_config):
        grid, container = _fresh_plasma(tiled_grid_config)
        tiles = container.nonempty_tiles()
        expected = [[tile.tile_index for tile in shard]
                    for shard in SerialExecutor(SHARDS).partition(tiles)]
        assert len(expected) == SHARDS
        for name, executor in _executors().items():
            with executor:
                assert scratch_reduce(executor, grid, tiles,
                                      _tile_index_body) == expected, name
        assert scratch_reduce(None, grid, tiles, _tile_index_body) == [
            [tile.tile_index for tile in tiles]]

    def test_leases_are_released_when_a_task_raises(self, tiled_grid_config):
        grid, container = _fresh_plasma(tiled_grid_config)
        scratch_grids.clear()
        targets = []
        with ThreadTileExecutor(SHARDS) as executor:
            with pytest.raises(RuntimeError, match="shard body failed"):
                scratch_reduce(executor, grid, container.nonempty_tiles(),
                               _raising_body, targets)
        # every shard's scratch went back to the pool, which now serves
        # exactly those grids again
        pooled = [scratch_grids.acquire(tiled_grid_config)
                  for _ in range(SHARDS)]
        assert len(targets) == SHARDS
        assert all(any(target is grid for grid in pooled)
                   for target in targets)
        scratch_grids.clear()


# ----------------------------------------------------------------------
# reference deposition parity
# ----------------------------------------------------------------------
class TestReferenceParity:
    def test_current_bitwise_identical_across_backends(self, tiled_grid_config):
        results = {}
        for name, executor in _executors().items():
            grid, container = _fresh_plasma(tiled_grid_config)
            with executor:
                deposit_reference(grid, container, order=1, executor=executor)
            results[name] = (grid.jx.copy(), grid.jy.copy(), grid.jz.copy())
        for ref, got in zip(results["serial"], results["threads"]):
            assert np.array_equal(ref, got)

    def test_sharded_matches_inline_loop(self, tiled_grid_config):
        grid_inline, container = _fresh_plasma(tiled_grid_config)
        deposit_reference(grid_inline, container, order=1)

        grid_sharded, container = _fresh_plasma(tiled_grid_config)
        with SerialExecutor(1) as executor:
            deposit_reference(grid_sharded, container, order=1,
                              executor=executor)
        assert np.array_equal(grid_inline.jx, grid_sharded.jx)

    def test_single_shard_backends_match_on_nonzero_grid(
            self, tiled_grid_config):
        # regression: at one shard every backend must take the same inline
        # path.  A backend-dependent choice shows up once the grid already
        # holds another species' currents — inline deposits straight into
        # the non-zero grid, a scratch-merge path would reassociate the
        # sums and drift in the last ulp.
        results = {}
        for name in SUPPORTED_BACKENDS:
            grid, container = _fresh_plasma(tiled_grid_config)
            _, other = _fresh_plasma(tiled_grid_config, seed=91)
            with create_executor(ExecutionConfig(backend=name,
                                                 num_shards=1)) as executor:
                deposit_reference(grid, other, order=1, executor=executor)
                deposit_reference(grid, container, order=1, executor=executor)
            results[name] = grid.jx.copy()
        assert np.array_equal(results["serial"], results["threads"])

    def test_rho_bitwise_identical_across_backends(self, tiled_grid_config):
        results = {}
        for name, executor in _executors().items():
            grid, container = _fresh_plasma(tiled_grid_config)
            with executor:
                deposit_rho_reference(grid, container, order=1,
                                      executor=executor)
            results[name] = grid.rho.copy()
        assert np.array_equal(results["serial"], results["threads"])


# ----------------------------------------------------------------------
# instrumented kernels: counters must merge deterministically
# ----------------------------------------------------------------------
class TestKernelCounterParity:
    def test_kernel_deposit_counters_and_currents(self, tiled_grid_config):
        results = {}
        for name, executor in _executors().items():
            grid, container = _fresh_plasma(tiled_grid_config)
            with executor:
                counters = deposit_unsorted(BaselineDeposition(), grid,
                                            container, 1, executor)
            results[name] = (grid.jx.copy(), counters)
        jx_ref, counters_ref = results["serial"]
        jx, counters = results["threads"]
        assert np.array_equal(jx_ref, jx)
        for phase in counters_ref.phases:
            assert (counters.phase(phase).as_dict()
                    == counters_ref.phase(phase).as_dict()), phase

    def test_kernel_deposit_single_tile_goes_straight_into_grid(
            self, tiled_grid_config, monkeypatch):
        # one occupied tile is one shard on any executor, like the
        # reference deposition: no scratch grid is leased for it
        grid, container = _fresh_plasma(tiled_grid_config)
        for tile in container.tiles[1:]:
            tile.remove(np.ones(tile.num_particles, dtype=bool))
        monkeypatch.setattr(
            scratch_grids, "acquire",
            lambda *args, **kwargs: pytest.fail("leased a scratch grid"))
        with SerialExecutor(SHARDS) as executor:
            deposit_unsorted(BaselineDeposition(), grid, container, 1,
                             executor)
        assert grid.jx.any()

    def test_matrix_pic_threaded_matches_serial(self, tiled_grid_config):
        results = {}
        for name, executor in (("serial", SerialExecutor(SHARDS)),
                               ("threads", ThreadTileExecutor(SHARDS))):
            grid, container = _fresh_plasma(tiled_grid_config)
            strategy = MatrixPICDeposition(sort_mode=SORT_INCREMENTAL)
            with executor:
                counters = strategy.run_step(grid, container, 1, 0,
                                             executor=executor)
            results[name] = (grid.jx.copy(), counters)
        jx_ref, counters_ref = results["serial"]
        jx_thr, counters_thr = results["threads"]
        assert np.array_equal(jx_ref, jx_thr)
        for phase in counters_ref.phases:
            assert (counters_thr.phase(phase).as_dict()
                    == counters_ref.phase(phase).as_dict()), phase


# ----------------------------------------------------------------------
# whole-simulation parity
# ----------------------------------------------------------------------
class TestSimulationParity:
    @staticmethod
    def _run(backend: str, num_shards: int, steps: int = 3):
        workload = UniformPlasmaWorkload(
            n_cell=(8, 8, 8), tile_size=(4, 4, 4), ppc=8, max_steps=steps,
            execution=ExecutionConfig(backend=backend, num_shards=num_shards),
        )
        simulation = workload.build_session()
        try:
            simulation.run_all(record_energy=True)
            soa = simulation.containers[0].gather_soa()
            order = np.argsort(soa["ids"])
            return {
                "jx": simulation.grid.jx.copy(),
                "soa": {k: v[order] for k, v in soa.items()},
                "energy": simulation.energy.history[-1].total,
                "executor": simulation.breakdown.executor_name,
            }
        finally:
            simulation.shutdown()

    def test_threads_bitwise_identical_to_serial(self):
        ref = self._run("serial", 4)
        thr = self._run("threads", 4)
        assert thr["executor"] == "threads"
        assert np.array_equal(ref["jx"], thr["jx"])
        for key, ref_arr in ref["soa"].items():
            assert np.array_equal(ref_arr, thr["soa"][key]), key
        assert thr["energy"] == ref["energy"]

    def test_boundary_and_redistribute_sharded(self, tiled_grid_config):
        grid_a, container_a = _fresh_plasma(tiled_grid_config, seed=23)
        grid_b, container_b = _fresh_plasma(tiled_grid_config, seed=23)
        # push particles far enough to cross tiles
        for container in (container_a, container_b):
            for tile in container.iter_tiles():
                tile.x += 2.5e-6
        container_a.apply_boundary_conditions(grid_a)
        moved_a = container_a.redistribute(grid_a)
        with ThreadTileExecutor(SHARDS) as executor:
            container_b.apply_boundary_conditions(grid_b, executor=executor)
            moved_b = container_b.redistribute(grid_b, executor=executor)
        assert moved_a == moved_b > 0
        for tile_a, tile_b in zip(container_a.iter_tiles(),
                                  container_b.iter_tiles()):
            assert np.array_equal(tile_a.ids, tile_b.ids)
            assert np.array_equal(tile_a.x, tile_b.x)


# ----------------------------------------------------------------------
# degraded process pools
# ----------------------------------------------------------------------
def test_process_executor_degrades_to_inline(monkeypatch):
    import repro.exec.pool as pool_mod

    def boom(*args, **kwargs):
        raise OSError("no processes for you")

    monkeypatch.setattr(pool_mod.concurrent.futures,
                        "ProcessPoolExecutor", boom)
    pool = SupervisedPool(2, owner="executor")
    tasks = [TileTask(_identity, (i,)) for i in range(4)]
    assert pool.run(tasks) == [0, 1, 2, 3]
    assert pool.degraded
