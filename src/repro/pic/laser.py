"""Gaussian laser pulse injection for the LWFA workload.

The laser is injected by a soft antenna located on a transverse plane of
the grid: every step the antenna adds a source field with a Gaussian
temporal envelope, a Gaussian transverse profile and the carrier
oscillation of the configured wavelength.  This is the standard technique
used by WarpX for the laser of a laser-wakefield run and is sufficient to
drive the plasma wake that the LWFA workload measures.
"""

from __future__ import annotations

import numpy as np

from repro import constants
from repro.config import LaserConfig
from repro.pic.grid import Grid


class LaserAntenna:
    """Plane antenna injecting an x-polarised Gaussian laser pulse along z."""

    def __init__(self, config: LaserConfig, grid: Grid):
        self.config = config
        self.omega = 2.0 * np.pi * constants.C_LIGHT / config.wavelength
        # plane index of the antenna within the grid
        dz = grid.cell_size[2]
        offset = config.injection_position - grid.lo[2]
        self.plane_index = int(np.clip(round(offset / dz), 1,
                                       grid.shape[2] - 2))
        #: time at which the pulse peak passes the antenna
        self.t_peak = 3.0 * config.duration

    # ------------------------------------------------------------------
    def envelope(self, t: float) -> float:
        """Temporal Gaussian envelope at time ``t`` (peak value 1)."""
        return float(np.exp(-((t - self.t_peak) / self.config.duration) ** 2))

    def transverse_profile(self, grid: Grid) -> np.ndarray:
        """Transverse Gaussian profile on the antenna plane."""
        centers = []
        for a in (0, 1):
            n = grid.shape[a]
            coords = grid.lo[a] + (np.arange(n) + 0.5) * grid.cell_size[a]
            mid = 0.5 * (grid.lo[a] + grid.hi[a])
            centers.append((coords - mid) ** 2)
        r2 = centers[0][:, None] + centers[1][None, :]
        return np.exp(-r2 / self.config.waist**2)

    def inject(self, grid: Grid, t: float, dt: float) -> None:
        """Add the antenna source field for the step ending at time ``t``."""
        env = self.envelope(t)
        if env < 1.0e-8:
            return
        carrier = np.sin(self.omega * t)
        amplitude = self.config.peak_field * env * carrier
        profile = self.transverse_profile(grid)
        # soft source: add a current-like drive scaled so that a pulse of the
        # configured a0 builds up over the pulse duration
        drive = amplitude * dt * self.omega / (2.0 * np.pi)
        grid.ex[:, :, self.plane_index] += drive * profile


class LaserStage:
    """Pipeline stage: antenna injection on the global grid.

    No-op for workloads without a laser, matching the pre-pipeline loop.
    """

    name = "laser"
    bucket = "field_solve"
    reads = frozenset({
        "grid.geometry", "laser", "time", "dt",
    })
    writes = frozenset({"grid.fields"})

    def run(self, session) -> None:
        if session.laser is not None:
            session.laser.inject(session.grid, session.time, session.dt)
