"""Moving simulation window for the LWFA workload.

The LWFA run of the paper uses WarpX's moving window along z
(``warpx.do_moving_window = 1``): the simulated domain follows the laser at
the speed of light so the wake stays inside the box.  Whenever the window
has advanced by at least one cell, the implementation

* shifts every field array backwards by the corresponding number of cells
  (zero-filling the newly exposed slab at the leading edge),
* advances the grid origin, and
* refills the newly exposed slab with fresh background plasma.

The ``migrate`` stage runs next: it drops the particles left behind the
new trailing edge and re-tiles the rest against the new origin.
"""

from __future__ import annotations

import numpy as np

from repro.config import MovingWindowConfig
from repro.pic.grid import Grid
from repro.pic.particles import ParticleContainer
from repro.pic.plasma import load_plasma_slab


class MovingWindow:
    """Shifts the grid to follow the laser and refills the exposed slab.

    The refill loads each container's species along z
    (:func:`~repro.pic.plasma.load_plasma_slab`), the axis of the one
    workload that moves its window, jittered from the window's own
    stream ``rng`` (seeded ``seed + 1``; :mod:`repro.ckpt` restores it).
    """

    def __init__(self, config: MovingWindowConfig, seed: int):
        self.config = config
        self.rng = np.random.default_rng(seed + 1)
        self._accumulated = 0.0
        self.total_shift_cells = 0

    # ------------------------------------------------------------------
    def advance(self, grid: Grid, containers: list[ParticleContainer],
                dt: float, step: int) -> int:
        """Advance the window by ``dt``; returns the number of cells shifted."""
        if not self.config.enabled or step < self.config.start_step:
            return 0
        axis = self.config.axis
        dx = grid.cell_size[axis]
        self._accumulated += self.config.speed * dt
        shift = int(self._accumulated // dx)
        if shift <= 0:
            return 0
        self._accumulated -= shift * dx
        self.total_shift_cells += shift

        self._shift_fields(grid, shift)
        old_hi = grid.hi[axis]
        grid.lo[axis] += shift * dx
        grid.hi[axis] += shift * dx

        for container in containers:
            load_plasma_slab(grid, container, container.species,
                             z_lo=old_hi, z_hi=grid.hi[axis], rng=self.rng)
        return shift

    # ------------------------------------------------------------------
    def _shift_fields(self, grid: Grid, shift: int) -> None:
        axis = self.config.axis
        for arr in grid.field_arrays().values():
            arr[...] = np.roll(arr, -shift, axis=axis)
            index = [slice(None)] * 3
            index[axis] = slice(-shift, None)
            arr[tuple(index)] = 0.0


class MovingWindowStage:
    """Pipeline stage: move the window on the frame grid, refill its slab."""

    name = "moving_window"
    bucket = "boundary_redistribute"
    reads = frozenset({
        "moving_window", "grid.geometry", "containers.membership", "dt",
        "step_index",
    })
    writes = frozenset({
        "moving_window", "grid.geometry", "grid.fields", "grid.currents",
        "containers.position", "containers.momentum",
        "containers.membership",
    })

    def run(self, session) -> None:
        session.moving_window.advance(session.grid, session.containers,
                                      session.dt, session.step_index)
