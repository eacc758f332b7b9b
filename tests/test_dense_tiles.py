"""A session whose tiles hold more than ``BATCH_PARTICLES`` particles
equals, step by step, the same session with the cap above the tile size.

Gather + push and the MatrixPIC deposit work such a tile in pieces
(``repro.pic.particles.piece_bounds``); every per-particle value and
every cell's block sum is independent of the cut, so the state digest,
the ``KernelCounters`` and every tile visit's ``StepSortStats`` must be
the uncut run's exactly, for each configuration that runs the MatrixPIC
kernel and on both executors.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from unittest import mock

import pytest

from repro.baselines.configs import (
    available_configurations,
    configuration_kernel,
    make_strategy,
)
from repro.ckpt import capture_state
from repro.config import ExecutionConfig
from repro.core.hybrid_kernel import HybridMPUDeposition
from repro.pic import particles
from repro.pic.particles import BATCH_PARTICLES
from repro.workloads import UniformPlasmaWorkload

from helpers import hot_plasma_session

MATRIX_PIC = [name for name in available_configurations()
              if configuration_kernel(name) is HybridMPUDeposition]
EXECUTIONS = {"serial": ExecutionConfig(),
              "threads2": ExecutionConfig(backend="threads", num_shards=2)}
STEPS = 4


def dense_qsp(execution):
    """Two 8x8x12-cell tiles at 27 PPC: 20 736 QSP particles each, hot
    enough that cells and tiles trade particles every step (so cells
    hold unequal counts and a cut at a particle index splits one)."""
    return UniformPlasmaWorkload(n_cell=(8, 8, 24), tile_size=(8, 8, 12),
                                 ppc=27, shape_order=3, max_steps=100,
                                 execution=execution)


def record_visits(sorter, log):
    """Log every per-tile sort call's ``StepSortStats``."""
    for name in ("global_sort_tile", "incremental_update_tile"):
        method = getattr(sorter, name)

        @functools.wraps(method)
        def recorded(*args, _method=method, _name=name, **kwargs):
            stats = _method(*args, **kwargs)
            log.append((_name, sorted(dataclasses.asdict(stats).items())))
            return stats
        setattr(sorter, name, recorded)


def trajectory(config_name, execution):
    """Per step: state digest, counters and the tile visits' sort
    statistics (sorted: the threaded shards log in any order)."""
    strategy = make_strategy(config_name)
    visits = []
    record_visits(strategy.sorter, visits)
    rows = []
    with hot_plasma_session(dense_qsp(execution), strategy) as session:
        assert min(tile.num_particles for tile in
                   session.containers[0].tiles) > BATCH_PARTICLES
        for _ in range(STEPS):
            session.step()
            _, arrays = capture_state(session)
            digest = hashlib.sha256()
            for name in sorted(arrays):
                digest.update(name.encode("ascii"))
                digest.update(arrays[name].tobytes())
            counters = session.deposition_counters
            rows.append((digest.hexdigest(),
                         {phase: c.as_dict()
                          for phase, c in sorted(counters.phases.items())},
                         sorted(visits)))
            visits.clear()
    return rows


@pytest.mark.parametrize("execution", sorted(EXECUTIONS))
@pytest.mark.parametrize("config_name", MATRIX_PIC)
def test_pieces_equal_the_uncut_tiles_step_by_step(config_name, execution):
    cut = trajectory(config_name, EXECUTIONS[execution])
    with mock.patch.object(particles, "BATCH_PARTICLES", 1 << 30):
        whole = trajectory(config_name, EXECUTIONS[execution])
    for step, (got, want) in enumerate(zip(cut, whole)):
        assert got == want, (config_name, execution, step)
