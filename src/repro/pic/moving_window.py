"""Moving simulation window for the LWFA workload.

The LWFA run of the paper uses WarpX's moving window along z
(``warpx.do_moving_window = 1``): the simulated domain follows the laser at
the speed of light so the wake stays inside the box.  Whenever the window
has advanced by at least one cell, the implementation

* shifts every field array backwards by the corresponding number of cells
  (zero-filling the newly exposed slab at the leading edge),
* advances the grid origin,
* drops particles that fell behind the trailing edge, and
* injects fresh background plasma in the newly exposed cells.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.config import MovingWindowConfig
from repro.pic.grid import Grid
from repro.pic.particles import ParticleContainer


class MovingWindow:
    """Shifts the grid and particle population to follow the laser."""

    def __init__(self, config: MovingWindowConfig,
                 injector: Optional[Callable[[Grid, ParticleContainer, float, float], None]] = None):
        self.config = config
        #: callback invoked as ``injector(grid, container, z_lo, z_hi)`` to
        #: fill the newly exposed slab with plasma
        self.injector = injector
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
            self._trim_particles(container, grid)
            if self.injector is not None:
                self.injector(grid, container, old_hi, grid.hi[axis])
        return shift

    # ------------------------------------------------------------------
    def _shift_fields(self, grid: Grid, shift: int) -> None:
        axis = self.config.axis
        for arr in grid.field_arrays().values():
            arr[...] = np.roll(arr, -shift, axis=axis)
            index = [slice(None)] * 3
            index[axis] = slice(-shift, None)
            arr[tuple(index)] = 0.0

    def _trim_particles(self, container: ParticleContainer, grid: Grid) -> int:
        """Remove particles that fell behind the new trailing edge."""
        axis = self.config.axis
        removed = 0
        for tile in container.iter_tiles():
            if tile.num_particles == 0:
                continue
            coords = (tile.x, tile.y, tile.z)[axis]
            behind = coords < grid.lo[axis]
            if behind.any():
                removed += int(behind.sum())
                tile.remove(behind)
        return removed


class MovingWindowStage:
    """Pipeline stage: advance the moving window on the frame grid."""

    name = "moving_window"
    bucket = "boundary_redistribute"
    reads = frozenset({
        "moving_window", "grid.geometry", "containers.position",
        "containers.membership", "dt", "step_index",
    })
    writes = frozenset({
        "grid.geometry", "grid.fields", "grid.currents",
        "containers.membership",
    })

    def run(self, session) -> None:
        session.moving_window.advance(session.grid, session.containers,
                                      session.dt, session.step_index)
