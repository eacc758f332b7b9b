"""Uniform-plasma workload (Appendix A, Table 4, left column).

The paper's uniform-plasma runs use a 256x128x128 grid with 8x8x8 particle
tiles, periodic boundaries, a homogeneous electron population at
1e25 m^-3 with a 0.01c Maxwellian momentum spread, and a particle-density
scan over PPC in {1, 8, 64, 128}.  The reproduction keeps every structural
parameter and scales the grid down (the default is 16x16x16 cells) so the
pure-Python kernels stay tractable; the cost model normalises per particle,
so the scaled runs exercise the same regimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro import constants
from repro.api import Session
from repro.config import (
    DomainConfig,
    ExecutionConfig,
    GridConfig,
    SimulationConfig,
    SpeciesConfig,
)
from repro.obs import ObsConfig
from repro.pic.simulation import DepositionStrategy

#: PPC triples of the paper's density scan and the average PPC they produce.
PPC_SCAN: Dict[int, Tuple[int, int, int]] = {
    1: (1, 1, 1),
    8: (2, 2, 2),
    64: (4, 4, 4),
    128: (8, 4, 4),
}

#: electron density [m^-3] of the paper's uniform plasma
DENSITY = 1.0e25
#: Maxwellian momentum spread of the paper's uniform plasma [m/s]
THERMAL_VELOCITY = 0.01 * constants.C_LIGHT


def ppc_triple(ppc: int) -> Tuple[int, int, int]:
    """The per-axis particles-per-cell triple of an average PPC: the
    paper's scan value, or the cube root of a perfect cube."""
    if ppc in PPC_SCAN:
        return PPC_SCAN[ppc]
    root = round(ppc ** (1.0 / 3.0))
    if root**3 == ppc:
        return (root, root, root)
    raise ValueError(
        f"PPC {ppc} is not part of the paper's scan {sorted(PPC_SCAN)} "
        "and is not a perfect cube"
    )


@dataclass
class UniformPlasmaWorkload:
    """Builder for uniform-plasma simulations at a given PPC density."""

    n_cell: Tuple[int, int, int] = (16, 16, 16)
    tile_size: Tuple[int, int, int] = (8, 8, 8)
    ppc: int = 64
    shape_order: int = 1
    max_steps: int = 10
    #: tile execution engine used by the step loop (:mod:`repro.exec`)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    #: (px, py, pz) domain decomposition of the grid (:mod:`repro.domain`)
    domains: Tuple[int, int, int] = (1, 1, 1)
    #: tracing/metrics/health telemetry (:mod:`repro.obs`) — inert to
    #: results, excluded from campaign cache keys
    observe: ObsConfig = field(default_factory=ObsConfig)
    seed: int = 2026

    def domain_extent(self) -> Tuple[float, float, float]:
        """Physical domain size: one plasma skin depth per ~10 cells."""
        dx = constants.skin_depth(DENSITY) / 10.0
        return tuple(dx * n for n in self.n_cell)  # type: ignore[return-value]

    def build_config(self) -> SimulationConfig:
        """The :class:`SimulationConfig` of this workload."""
        extent = self.domain_extent()
        grid = GridConfig(
            n_cell=self.n_cell,
            lo=(0.0, 0.0, 0.0),
            hi=extent,
            tile_size=self.tile_size,
            field_boundary=("periodic",) * 3,
            particle_boundary=("periodic",) * 3,
        )
        species = SpeciesConfig(
            name="electrons",
            density=DENSITY,
            ppc=ppc_triple(self.ppc),
            thermal_velocity=THERMAL_VELOCITY,
        )
        return SimulationConfig(
            grid=grid,
            species=(species,),
            shape_order=self.shape_order,
            max_steps=self.max_steps,
            execution=self.execution,
            domain=DomainConfig(domains=self.domains),
            observe=self.observe,
            seed=self.seed,
        )

    def build_session(self, deposition: Optional[DepositionStrategy] = None
                      ) -> Session:
        """A fully initialised session using the given deposition strategy."""
        return Session(self.build_config(), deposition=deposition)

    # ------------------------------------------------------------------
    def scramble_particles(self, session: Session,
                           seed: Optional[int] = None) -> None:
        """Randomly permute every tile's particle storage order.

        Freshly loaded plasma is laid out cell by cell, which would give the
        no-sort baselines artificially perfect locality.  The paper's
        baselines observe the unordered layout that develops after many
        steps of particle motion; scrambling reproduces that state without
        having to run the warm-up phase.
        """
        rng = np.random.default_rng(self.seed if seed is None else seed)
        for container in session.containers:
            for tile in container.iter_tiles():
                if tile.num_particles > 1:
                    tile.permute(rng.permutation(tile.num_particles))
