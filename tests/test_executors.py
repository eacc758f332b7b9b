"""Tests for the tile executor subsystem (:mod:`repro.exec`).

The central property is the determinism contract: for a fixed shard
count, the serial and threaded backends partition tiles identically,
accumulate into private scratch buffers, and merge in shard
order — so deposited currents, charge densities and merged
:class:`~repro.hardware.counters.KernelCounters` are *bitwise identical*
across backends.
"""

from __future__ import annotations

import functools
import threading

import numpy as np
import pytest

from repro.config import SUPPORTED_BACKENDS, ExecutionConfig
from repro.exec import SupervisedPool, TileExecutor, map_shards
from repro.core.framework import MatrixPICDeposition, SORT_INCREMENTAL
from repro.pic.deposition.base import scratch_reduce
from repro.pic.deposition.baseline import BaselineDeposition
from repro.pic.deposition.reference import (
    deposit_reference,
    deposit_rho_reference,
)
from repro.pic.grid import Grid
from repro.workloads.uniform import UniformPlasmaWorkload

from helpers import deposit_unsorted, gather_soa, make_plasma

SHARDS = 3


def _fresh_plasma(tiled_grid_config, seed=11):
    return make_plasma(tiled_grid_config, ppc=(2, 2, 2), seed=seed)


def make_executor(backend="serial", shards=SHARDS, **kwargs):
    return TileExecutor(ExecutionConfig(backend, shards), **kwargs)


def _executors():
    return {name: make_executor(name) for name in SUPPORTED_BACKENDS}


# ----------------------------------------------------------------------
# partitioning and configuration
# ----------------------------------------------------------------------
class TestPartitioning:
    def test_partition_covers_all_items_in_order(self):
        shards = make_executor().partition(list(range(10)))
        assert shards == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
        # contiguous slices of what it was given
        assert make_executor(shards=4).partition(range(6)) == [
            range(0, 2), range(2, 4), range(4, 5), range(5, 6)]

    def test_partition_never_emits_empty_shards(self):
        assert make_executor(shards=5).partition([7, 8]) == [[7], [8]]
        assert make_executor(shards=4).partition([]) == []
        for items in range(1, 12):
            for shards in range(1, 6):
                sizes = [len(shard) for shard in make_executor(
                    shards=shards).partition(list(range(items)))]
                # numpy.array_split's sizes, with the empty shards dropped
                assert sizes == [len(part) for part in np.array_split(
                    np.arange(items), shards) if len(part)]

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

    def test_the_executor_is_built_from_the_config(self):
        for backend in SUPPORTED_BACKENDS:
            with make_executor(backend, 2) as built:
                assert (built.name, built.num_shards) == (backend, 2)
                assert not built.is_trivial
        assert make_executor(shards=1).is_trivial

    def test_executors_preserve_task_order(self):
        tasks = [functools.partial(_identity, i) for i in range(7)]
        for name, built in _executors().items():
            with built:
                assert built.run(tasks) == list(range(7)), name

    def test_only_threads_count_and_span_their_batches(self):
        from repro.obs import ObsConfig, Telemetry

        for name in SUPPORTED_BACKENDS:
            obs = Telemetry(ObsConfig(trace=True))
            with make_executor(name, obs=obs) as built:
                built.run([functools.partial(_identity, i)
                           for i in range(3)])
            counted = obs.metrics.namespace("exec.")
            spans = [event for event in obs.events
                     if event["name"] == "shard_batch"]
            if name == "serial":
                assert counted == {} and spans == [], name
            else:
                assert counted == {"shard_batches": 1.0,
                                   "shard_tasks": 3.0}, name
                assert [event["type"] for event in spans] == ["B", "E"]

    def test_a_failing_task_raises_after_its_siblings_settle(self):
        done = []

        def task(i):
            if i == 0:
                raise RuntimeError("first")
            done.append(i)
            return i

        with make_executor("threads") as built:
            with pytest.raises(RuntimeError, match="first"):
                built.run([functools.partial(task, i) for i in range(3)])
        assert sorted(done) == [1, 2]


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

        with make_executor("threads", 1) as one, \
                make_executor("threads") as many:
            for executor, items in ((None, [1, 2, 3]), (one, [1, 2, 3]),
                                    (many, [7]), (many, [])):
                calls.clear()
                assert map_shards(executor, fn, items, "tag") == ["tag"]
                assert calls == [(threading.get_ident(), items)]

    def test_results_come_back_in_shard_order(self):
        for name, built in _executors().items():
            with built:
                assert map_shards(built, _offset_shard, list(range(10)),
                                  100) == [[100, 101, 102, 103],
                                           [104, 105, 106],
                                           [107, 108, 109]], name

    def test_task_exception_propagates(self):
        for name, built in _executors().items():
            with built, pytest.raises(ZeroDivisionError):
                map_shards(built, _reciprocal_shard, [1, 2, 0, 4])


class TestScratchReduce:
    def test_body_values_come_back_in_shard_order(self, tiled_grid_config):
        grid, container = _fresh_plasma(tiled_grid_config)
        tiles = container.nonempty_tiles()
        expected = [[tile.tile_index for tile in shard]
                    for shard in make_executor().partition(tiles)]
        assert len(expected) == SHARDS
        for name, built in _executors().items():
            with built:
                assert scratch_reduce(built, grid, tiles,
                                      _tile_index_body) == expected, name
        assert scratch_reduce(None, grid, tiles, _tile_index_body) == [
            [tile.tile_index for tile in tiles]]

    def test_a_raising_shard_body_propagates(self, tiled_grid_config):
        grid, container = _fresh_plasma(tiled_grid_config)
        for name, built in _executors().items():
            targets = []
            with built, pytest.raises(RuntimeError,
                                      match="shard body failed"):
                scratch_reduce(built, grid, container.nonempty_tiles(),
                               _raising_body, targets)
            # the shards that ran got scratch grids of their own, and
            # nothing was merged into the grid
            assert targets, name
            assert all(isinstance(target, Grid) and target is not grid
                       for target in targets), name
            assert not any(array.any() for array in grid.current_arrays())


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
        with make_executor(shards=1) as executor:
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
            with make_executor(name, 1) as executor:
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
        # reference deposition: no scratch grid is built for it
        grid, container = _fresh_plasma(tiled_grid_config)
        first = container.tiles[0].num_particles
        counts = np.zeros(len(container.tiles), dtype=np.int64)
        counts[0] = first
        container.load_soa({name: array[:first] for name, array
                            in container.soa_arrays().items()}, counts)
        monkeypatch.setattr(
            Grid, "__init__",
            lambda *args, **kwargs: pytest.fail("built a scratch grid"))
        with make_executor() as executor:
            deposit_unsorted(BaselineDeposition(), grid, container, 1,
                             executor)
        assert grid.jx.any()

    def test_matrix_pic_threaded_matches_serial(self, tiled_grid_config):
        results = {}
        for name, executor in _executors().items():
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
            for _ in simulation.run(record_energy=True):
                pass
            soa = gather_soa(simulation.containers[0])
            order = np.argsort(soa["ids"])
            return {
                "jx": simulation.grid.jx.copy(),
                "soa": {k: v[order] for k, v in soa.items()},
                "energy": simulation.energy.history[-1].total,
                "executor": simulation.executor.name,
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
                tile.x[...] += 2.5e-6
        moved_a = container_a.redistribute(grid_a)
        with make_executor("threads") as executor:
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
    tasks = [functools.partial(_identity, i) for i in range(4)]
    assert pool.run(tasks) == [0, 1, 2, 3]
    assert pool.degraded
