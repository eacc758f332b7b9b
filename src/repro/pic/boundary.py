"""Field boundary conditions.

Periodic axes need no treatment (the solver's rolls already wrap).  The
LWFA workload of the paper uses PEC/PML along z (Appendix A); here PEC is
implemented exactly (tangential E and normal B forced to zero on the
boundary planes) and the PML is replaced by a simple exponential damping
layer, which is sufficient to absorb the laser and wakefield radiation at
the reduced scale of the reproduction.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.config import GridConfig
from repro.pic.grid import Grid

#: cells of the absorbing layer at each wall (at most half the axis)
DAMPING_CELLS = 8
#: exponent of the layer's Gaussian damping at the wall
DAMPING_STRENGTH = 0.5


class FieldBoundaryConditions:
    """Applies PEC / absorbing field boundaries after each field update."""

    def __init__(self, config: GridConfig):
        self.config = config
        self._profiles: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def apply(self, grid: Grid) -> None:
        """Apply the configured boundary condition on every non-periodic axis."""
        for axis, bc in enumerate(self.config.field_boundary):
            if bc == "pec":
                self._apply_pec(grid, axis)
            elif bc == "absorbing":
                self._apply_absorbing(grid, axis)

    # ------------------------------------------------------------------
    def _apply_pec(self, grid: Grid, axis: int) -> None:
        """Perfect electric conductor: zero tangential E on both walls."""
        tangential = {
            0: (grid.ey, grid.ez),
            1: (grid.ex, grid.ez),
            2: (grid.ex, grid.ey),
        }[axis]
        normal_b = {0: grid.bx, 1: grid.by, 2: grid.bz}[axis]
        for arr in (*tangential, normal_b):
            for plane in (0, -1):
                sl = [slice(None)] * 3
                sl[axis] = plane
                arr[tuple(sl)] = 0.0

    def damping_profile(self, n: int) -> np.ndarray:
        """The 1-D damping profile for an axis of ``n`` cells (cached)."""
        profile = self._profiles.get(n)
        if profile is None:
            layer = min(DAMPING_CELLS, n // 2)
            profile = np.ones(n)
            if layer > 0:
                ramp = np.linspace(1.0, 0.0, layer, endpoint=False)[::-1]
                damping = np.exp(-DAMPING_STRENGTH * ramp**2)
                profile[:layer] = damping[::-1]
                profile[-layer:] = damping
            profile.setflags(write=False)
            self._profiles[n] = profile
        return profile

    def _apply_absorbing(self, grid: Grid, axis: int) -> None:
        """Exponential damping layer (simplified PML) near both walls."""
        n = grid.shape[axis]
        shape = [1, 1, 1]
        shape[axis] = n
        profile = self.damping_profile(n).reshape(shape)
        for arr in (grid.ex, grid.ey, grid.ez, grid.bx, grid.by, grid.bz):
            arr *= profile


class FieldBoundaryStage:
    """Pipeline stage: PEC/absorbing field boundaries on the global grid."""

    name = "boundary"
    bucket = "field_solve"
    reads = frozenset({"grid.geometry", "boundaries"})
    writes = frozenset({"grid.fields"})

    def run(self, session) -> None:
        session.boundaries.apply(session.grid)
