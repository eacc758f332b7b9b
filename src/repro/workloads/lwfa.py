"""Laser-Wakefield Acceleration (LWFA) workload (Appendix A, right column).

The paper's LWFA run drives a plasma wake with a 0.8 um Gaussian laser in a
64x64x512 box with a moving window along z, periodic transverse boundaries
and absorbing longitudinal boundaries.  The reproduction keeps the
structure — laser antenna, background plasma with an up-ramp, moving window,
CIC deposition — at a reduced grid so the Python substrate can run it end
to end.  The density inhomogeneity that develops (compressed shock front,
rarefied bubble) is what makes this workload interesting for the sorting
machinery: particles migrate between cells far more often than in the
uniform plasma.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro import constants
from repro.api import Session
from repro.config import (
    DomainConfig,
    ExecutionConfig,
    GridConfig,
    LaserConfig,
    MovingWindowConfig,
    SimulationConfig,
    SpeciesConfig,
)
from repro.obs import ObsConfig
from repro.pic.plasma import load_plasma_slab
from repro.pic.simulation import DepositionStrategy
from repro.workloads.uniform import ppc_triple

#: normalised vector potential of the driving laser
LASER_A0 = 4.0
#: laser wavelength [m] (the paper's 0.8 um Ti:sapphire pulse)
LASER_WAVELENGTH = 0.8e-6
#: background electron density [m^-3] of the wake
DENSITY = 2.0e23
#: share of the box length over which the plasma density ramps up
RAMP_FRACTION = 0.2


@dataclass
class LWFAWorkload:
    """Builder for the laser-wakefield acceleration workload."""

    n_cell: Tuple[int, int, int] = (16, 16, 64)
    tile_size: Tuple[int, int, int] = (8, 8, 16)
    ppc: int = 8
    max_steps: int = 20
    #: tile execution engine used by the step loop (:mod:`repro.exec`)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    #: (px, py, pz) domain decomposition of the grid (:mod:`repro.domain`)
    domains: Tuple[int, int, int] = (1, 1, 1)
    #: tracing/metrics/health telemetry (:mod:`repro.obs`) — inert to
    #: results, excluded from campaign cache keys
    observe: ObsConfig = field(default_factory=ObsConfig)
    seed: int = 2026

    # ------------------------------------------------------------------
    def domain_extent(self) -> Tuple[float, float, float]:
        """Domain sized to resolve the plasma wavelength along z."""
        lambda_p = constants.plasma_wavelength(DENSITY)
        dz = lambda_p / 32.0
        dt_transverse = lambda_p / 8.0
        return (
            dt_transverse * self.n_cell[0],
            dt_transverse * self.n_cell[1],
            dz * self.n_cell[2],
        )

    def build_config(self) -> SimulationConfig:
        """The :class:`SimulationConfig` of the LWFA run."""
        extent = self.domain_extent()
        grid = GridConfig(
            n_cell=self.n_cell,
            lo=(0.0, 0.0, 0.0),
            hi=extent,
            tile_size=self.tile_size,
            field_boundary=("periodic", "periodic", "absorbing"),
            particle_boundary=("periodic", "periodic", "absorbing"),
        )
        species = SpeciesConfig(
            name="electrons",
            density=DENSITY,
            ppc=ppc_triple(self.ppc),
            thermal_velocity=0.0,
        )
        laser = LaserConfig(
            wavelength=LASER_WAVELENGTH,
            a0=LASER_A0,
            waist=0.25 * min(extent[0], extent[1]),
            duration=10.0e-15,
            injection_position=extent[2] * 0.05,
        )
        window = MovingWindowConfig(enabled=True, speed=constants.C_LIGHT,
                                    start_step=2)
        return SimulationConfig(
            grid=grid,
            species=(species,),
            shape_order=1,
            max_steps=self.max_steps,
            laser=laser,
            moving_window=window,
            execution=self.execution,
            domain=DomainConfig(domains=self.domains),
            observe=self.observe,
            seed=self.seed,
        )

    # ------------------------------------------------------------------
    def density_profile(self, extent_z: float):
        """Longitudinal density profile: linear up-ramp then flat top."""
        ramp_end = RAMP_FRACTION * extent_z

        def profile(z: np.ndarray) -> np.ndarray:
            z = np.asarray(z, dtype=np.float64)
            ramp = np.clip(z / max(ramp_end, 1.0e-300), 0.0, 1.0)
            return ramp

        return profile

    def build_session(self, deposition: Optional[DepositionStrategy] = None
                      ) -> Session:
        """A fully initialised LWFA session (plasma, laser, window)."""
        config = self.build_config()
        session = Session(config, deposition=deposition, load_plasma=False)
        grid = session.grid
        container = session.containers[0]
        species = config.species[0]
        extent_z = grid.hi[2] - grid.lo[2]
        profile = self.density_profile(extent_z)
        # plasma starts after the laser injection region
        load_plasma_slab(grid, container, species,
                         z_lo=grid.lo[2] + 0.1 * extent_z, z_hi=grid.hi[2],
                         density_profile=profile,
                         rng=np.random.default_rng(self.seed))
        return session
