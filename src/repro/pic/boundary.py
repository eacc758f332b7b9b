"""Field boundary conditions.

Periodic axes need no treatment (the solver's rolls already wrap).  The
LWFA workload of the paper uses PEC/PML along z (Appendix A); here PEC is
implemented exactly (tangential E and normal B forced to zero on the
boundary planes) and the PML is replaced by a simple exponential damping
layer, which is sufficient to absorb the laser and wakefield radiation at
the reduced scale of the reproduction.

Both conditions can be applied either to a whole global grid
(:meth:`FieldBoundaryConditions.apply`) or to an arbitrary cell window of
it (:meth:`FieldBoundaryConditions.apply_window`), which is how the
domain-decomposed step (:mod:`repro.domain`) applies them only on the
subdomains that touch a global edge.  The damping profile is computed
once per axis length and *sliced* for windows, so a decomposed
application multiplies by exactly the same floats as the global one —
the interior cells of the global path see a factor of exactly ``1.0``,
which is why restricting the multiply to boundary-touching windows is
bitwise-neutral.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.config import GridConfig
from repro.pic.grid import Grid


class FieldBoundaryConditions:
    """Applies PEC / absorbing field boundaries after each field update."""

    def __init__(self, config: GridConfig, damping_cells: int = 8,
                 damping_strength: float = 0.5):
        if damping_cells < 1:
            raise ValueError("damping_cells must be at least 1")
        self.config = config
        self.damping_cells = damping_cells
        self.damping_strength = damping_strength
        self._profiles: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def apply(self, grid: Grid) -> None:
        """Apply the configured boundary condition on every non-periodic axis."""
        shape = grid.shape
        self.apply_window(grid.field_arrays(), (0, 0, 0), shape)

    def apply_window(self, fields: Dict[str, np.ndarray],
                     window_lo: Tuple[int, int, int],
                     global_shape: Tuple[int, int, int]) -> None:
        """Apply the boundaries to a cell window of the global grid.

        ``fields`` maps the conventional component names (``ex`` .. ``bz``
        at least) to dense arrays covering the global cell window that
        starts at ``window_lo``; only the planes/layers of the window that
        intersect a global boundary are touched.
        """
        for axis, bc in enumerate(self.config.field_boundary):
            if bc == "pec":
                self._apply_pec(fields, axis, window_lo, global_shape)
            elif bc == "absorbing":
                self._apply_absorbing(fields, axis, window_lo, global_shape)

    # ------------------------------------------------------------------
    def _apply_pec(self, fields: Dict[str, np.ndarray], axis: int,
                   window_lo: Tuple[int, int, int],
                   global_shape: Tuple[int, int, int]) -> None:
        """Perfect electric conductor: zero tangential E on both walls."""
        tangential = {
            0: (fields["ey"], fields["ez"]),
            1: (fields["ex"], fields["ez"]),
            2: (fields["ex"], fields["ey"]),
        }[axis]
        normal_b = {0: fields["bx"], 1: fields["by"], 2: fields["bz"]}[axis]
        n = global_shape[axis]
        for arr in (*tangential, normal_b):
            dim = arr.shape[axis]
            window_hi = window_lo[axis] + dim
            if window_lo[axis] == 0:
                sl = [slice(None)] * 3
                sl[axis] = 0
                arr[tuple(sl)] = 0.0
            if window_hi == n:
                sl = [slice(None)] * 3
                sl[axis] = dim - 1
                arr[tuple(sl)] = 0.0

    def damping_profile(self, n: int) -> np.ndarray:
        """The 1-D damping profile for an axis of ``n`` cells (cached)."""
        profile = self._profiles.get(n)
        if profile is None:
            layer = min(self.damping_cells, n // 2)
            profile = np.ones(n)
            if layer > 0:
                ramp = np.linspace(1.0, 0.0, layer, endpoint=False)[::-1]
                damping = np.exp(-self.damping_strength * ramp**2)
                profile[:layer] = damping[::-1]
                profile[-layer:] = damping
            profile.setflags(write=False)
            self._profiles[n] = profile
        return profile

    def _apply_absorbing(self, fields: Dict[str, np.ndarray], axis: int,
                         window_lo: Tuple[int, int, int],
                         global_shape: Tuple[int, int, int]) -> None:
        """Exponential damping layer (simplified PML) near both walls."""
        n = global_shape[axis]
        layer = min(self.damping_cells, n // 2)
        if layer == 0:
            return
        dim = fields["ex"].shape[axis]
        if window_lo[axis] >= layer and window_lo[axis] + dim <= n - layer:
            # the window lies strictly between the damping layers, where
            # the profile is exactly 1.0 — multiplying would be a bitwise
            # no-op, so edge-interior subdomains skip it entirely
            return
        profile = self.damping_profile(n)
        for name in ("ex", "ey", "ez", "bx", "by", "bz"):
            arr = fields[name]
            window = profile[window_lo[axis]:window_lo[axis] + dim]
            shape = [1, 1, 1]
            shape[axis] = dim
            arr *= window.reshape(shape)


class FieldBoundaryStage:
    """Pipeline stage: PEC/absorbing field boundaries on the global grid.

    Gated on the simulation having a field solver, matching the
    pre-pipeline loop (boundaries are part of the field update; a
    solver-less run leaves the imposed fields untouched).
    """

    name = "boundary"
    bucket = "field_solve"
    reads = frozenset({
        "grid.geometry", "simulation.solver", "simulation.boundaries",
    })
    writes = frozenset({"grid.fields"})

    def run(self, ctx) -> None:
        simulation = ctx.simulation
        if simulation.solver is not None:
            simulation.boundaries.apply(ctx.grid)
