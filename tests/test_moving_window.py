"""The moving-window deposit is exact: a window shift is a particle
boundary event.

The window shifts before ``migrate``, so the regroup re-tiles every
particle against the new origin and each particle's cell lies in its
tile's box when ``deposit`` runs.  The tile-local kernels (rhocell, MPU)
would clamp a particle outside that box into a wrong cell, so on a
shifting window every strategy's J must equal the reference scatter of
the same particles, on every split and executor.

The plasma is given a warm momentum spread first: the LWFA plasma is
cold, and a particle at rest deposits no current wherever it is tiled.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import constants
from repro.baselines.configs import available_configurations, make_strategy
from repro.config import ExecutionConfig
from repro.pic.deposition.reference import deposit_reference
from repro.pic.grid import Grid, apply_grid_geometry, grid_geometry
from repro.workloads.lwfa import LWFAWorkload

from helpers import cells_outside_their_tile

STEPS = 5
SPREAD = 0.05 * constants.C_LIGHT


def scratch_grid(session):
    """An empty grid with the session's live (shifted) corners."""
    return apply_grid_geometry(Grid(session.grid.config),
                               grid_geometry(session.grid))


def current_error(grid, reference):
    """Largest difference of a J component, over that component's peak."""
    worst = 0.0
    for name in ("jx", "jy", "jz"):
        expected = getattr(reference, name)
        peak = np.abs(expected).max()
        assert peak > 0.0, name
        worst = max(worst, np.abs(getattr(grid, name) - expected).max() / peak)
    return worst


@pytest.mark.parametrize("backend,shards", [("serial", 1), ("threads", 2)])
@pytest.mark.parametrize("domains", [(1, 1, 1), (1, 1, 2)])
def test_every_strategy_deposits_the_reference_current_on_a_moving_window(
        domains, backend, shards):
    workload = LWFAWorkload(n_cell=(8, 8, 32), tile_size=(8, 8, 16), ppc=8,
                            max_steps=STEPS, domains=domains,
                            execution=ExecutionConfig(backend, shards))
    with workload.build_session() as session:
        (container,) = session.containers
        order = session.config.shape_order
        rng = np.random.default_rng(2027)
        for tile in container.nonempty_tiles():
            for name in ("ux", "uy", "uz"):
                setattr(tile, name, rng.normal(0.0, SPREAD, tile.num_particles))

        misplaced = []

        def after_migrate(stage, s):
            if stage.name == "deposit":
                misplaced.append(cells_outside_their_tile(s.grid, container))

        session.pipeline.add_pre_hook(after_migrate)
        errors = {}
        for _ in range(STEPS):
            session.step()
            reference = scratch_grid(session)
            deposit_reference(reference, container, order, session.executor)
            for name in available_configurations():
                mine = scratch_grid(session)
                make_strategy(name).run_step(
                    mine, copy.deepcopy(container), order, session.step_index,
                    executor=session.executor)
                errors[session.step_index, name] = current_error(mine,
                                                                 reference)
        assert session.moving_window.total_shift_cells >= 2
        worst = max(errors, key=errors.get)
        assert errors[worst] <= 1e-12, (worst, errors[worst])
        assert misplaced == [0] * STEPS
