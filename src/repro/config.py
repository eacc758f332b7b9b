"""Configuration dataclasses shared across the library.

The configuration mirrors the WarpX input parameters listed in Appendix A,
Table 4 of the paper (``amr.n_cell``, ``particles.tile_size``,
``algo.particle_shape``, ...), expressed as plain dataclasses so that
workloads and tests can build them directly.  The ``warpx.sort_*``
family is not configurable: the paper's evaluation fixes it at its
Appendix-A values, which are the constants of :mod:`repro.core.sort_policy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence, Tuple

from repro import constants

# safe: repro.exec and repro.obs have no runtime dependency back on this
# module
from repro.exec.base import SUPPORTED_BACKENDS
from repro.obs.config import ObsConfig

#: Marker stored in a GPMA slot that holds no particle (paper:
#: ``INVALID_PARTICLE_ID``).
INVALID_PARTICLE_ID = -1

#: Supported deposition shape orders, keyed by the WarpX
#: ``algo.particle_shape`` value used in the paper.
SHAPE_ORDER_CIC = 1
SHAPE_ORDER_TSC = 2
SHAPE_ORDER_QSP = 3
SUPPORTED_SHAPE_ORDERS = (SHAPE_ORDER_CIC, SHAPE_ORDER_TSC, SHAPE_ORDER_QSP)


def _as_int3(value: Sequence[int], name: str) -> Tuple[int, int, int]:
    items = tuple(int(v) for v in value)
    if len(items) != 3:
        raise ValueError(f"{name} must have exactly 3 entries, got {value!r}")
    if any(v <= 0 for v in items):
        raise ValueError(f"{name} entries must be positive, got {value!r}")
    return items  # type: ignore[return-value]


@dataclass(frozen=True)
class GridConfig:
    """Geometry of the simulation domain.

    Parameters
    ----------
    n_cell:
        Number of cells along (x, y, z) — WarpX ``amr.n_cell``.
    lo, hi:
        Physical coordinates of the domain corners in metres.
    tile_size:
        Cells per particle tile along each axis — WarpX
        ``particles.tile_size``.
    field_boundary, particle_boundary:
        Boundary condition names per axis; one of ``"periodic"``, ``"pec"``,
        ``"absorbing"``.
    """

    n_cell: Tuple[int, int, int]
    lo: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    hi: Tuple[float, float, float] = (1.0, 1.0, 1.0)
    tile_size: Tuple[int, int, int] = (8, 8, 8)
    field_boundary: Tuple[str, str, str] = ("periodic", "periodic", "periodic")
    particle_boundary: Tuple[str, str, str] = ("periodic", "periodic", "periodic")

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_cell", _as_int3(self.n_cell, "n_cell"))
        object.__setattr__(self, "tile_size", _as_int3(self.tile_size, "tile_size"))
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        if len(lo) != 3 or len(hi) != 3:
            raise ValueError("lo and hi must both have 3 entries")
        if any(h <= l for l, h in zip(lo, hi)):
            raise ValueError(f"domain extent must be positive: lo={lo}, hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        valid_bc = {"periodic", "pec", "absorbing"}
        for bc in (*self.field_boundary, *self.particle_boundary):
            if bc not in valid_bc:
                raise ValueError(f"unknown boundary condition {bc!r}")

    @property
    def cell_size(self) -> Tuple[float, float, float]:
        """Cell edge lengths (dx, dy, dz) in metres."""
        return tuple(
            (h - l) / n for l, h, n in zip(self.lo, self.hi, self.n_cell)
        )  # type: ignore[return-value]

    @property
    def num_cells(self) -> int:
        """Total number of cells in the domain."""
        nx, ny, nz = self.n_cell
        return nx * ny * nz


@dataclass(frozen=True)
class SpeciesConfig:
    """A particle species and its initial distribution."""

    name: str = "electrons"
    charge: float = constants.Q_ELECTRON
    mass: float = constants.M_ELECTRON
    density: float = 1.0e25
    ppc: Tuple[int, int, int] = (1, 1, 1)
    thermal_velocity: float = 0.01 * constants.C_LIGHT

    def __post_init__(self) -> None:
        object.__setattr__(self, "ppc", _as_int3(self.ppc, "ppc"))
        if self.mass <= 0.0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.density < 0.0:
            raise ValueError(f"density must be non-negative, got {self.density}")
        if not 0.0 <= self.thermal_velocity < constants.C_LIGHT:
            raise ValueError("thermal_velocity must lie in [0, c)")

    @property
    def particles_per_cell(self) -> int:
        """Average macro-particles per cell (product of the ppc triple)."""
        px, py, pz = self.ppc
        return px * py * pz


@dataclass(frozen=True)
class LaserConfig:
    """Gaussian laser pulse injected by an antenna (LWFA workload)."""

    wavelength: float = 0.8e-6
    a0: float = 4.0
    waist: float = 5.0e-6
    duration: float = 15.0e-15
    injection_position: float = 0.0
    polarization: str = "x"

    def __post_init__(self) -> None:
        if self.wavelength <= 0.0 or self.waist <= 0.0 or self.duration <= 0.0:
            raise ValueError("laser wavelength, waist and duration must be positive")
        if self.polarization not in ("x", "y"):
            raise ValueError(f"polarization must be 'x' or 'y', got {self.polarization!r}")

    @property
    def peak_field(self) -> float:
        """Peak electric field [V/m] corresponding to ``a0``."""
        return constants.laser_a0_to_field(self.a0, self.wavelength)


#: Execution backends understood by :mod:`repro.exec` (re-exported from
#: the single source of truth next to the executor implementations).
EXECUTION_BACKENDS = SUPPORTED_BACKENDS


@dataclass(frozen=True)
class ExecutionConfig:
    """Tile execution engine selection for the step loop (:mod:`repro.exec`).

    Parameters
    ----------
    backend:
        ``"serial"`` (reference, default) or ``"threads"`` (thread
        pool).  Per-tile work always runs in the caller's address space;
        the ``"processes"`` backend of earlier builds is rejected.
    num_shards:
        Number of contiguous tile shards each per-tile stage is split
        into; also the worker count of the threaded backend.  A positive
        ``int``, validated rather than coerced: the shard count fixes the
        deposition reduction tree and is part of the checkpoint
        fingerprint.  Both backends produce bitwise-identical results
        for the same shard count (see the determinism contract in
        :mod:`repro.exec.base`).

    The executor this selects belongs to the run (``session.executor``):
    the executor-sharded step path is the *same* stage list as the serial
    one, sharding inside the stage bodies.
    """

    backend: str = "serial"
    num_shards: int = 1

    def __post_init__(self) -> None:
        if self.backend not in EXECUTION_BACKENDS:
            hint = ("; 'threads' at the same num_shards is bitwise-identical"
                    if self.backend == "processes" else "")
            raise ValueError(
                f"backend must be one of {EXECUTION_BACKENDS}, "
                f"got {self.backend!r}{hint}"
            )
        if type(self.num_shards) is not int or self.num_shards <= 0:
            raise ValueError(
                f"num_shards must be a positive int, "
                f"got {self.num_shards!r}"
            )


@dataclass(frozen=True)
class DomainConfig:
    """Domain decomposition of the grid (:mod:`repro.domain`).

    Parameters
    ----------
    domains:
        Number of subdomains along (x, y, z).  The grid is partitioned
        into an axis-aligned block of subdomains whose boundaries are
        aligned with the particle-tile lattice; ``(1, 1, 1)`` (the
        default) is a single-domain run.  Every run steps on the frame
        grid; a decomposed one runs the field solve per subdomain.

    The determinism contract is strict: for a fixed executor shard
    count, a decomposed run is **bitwise identical** to the
    single-domain run — fields, J/rho and the energy history.
    """

    domains: Tuple[int, int, int] = (1, 1, 1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "domains", _as_int3(self.domains, "domains"))

    @property
    def num_domains(self) -> int:
        """Total number of subdomains."""
        px, py, pz = self.domains
        return px * py * pz

    @property
    def is_decomposed(self) -> bool:
        """True when more than one subdomain is requested."""
        return self.num_domains > 1


@dataclass(frozen=True)
class MovingWindowConfig:
    """Moving-window settings (WarpX ``warpx.do_moving_window``)."""

    enabled: bool = False
    axis: int = 2
    speed: float = constants.C_LIGHT
    start_step: int = 0

    def __post_init__(self) -> None:
        if self.axis not in (0, 1, 2):
            raise ValueError(f"axis must be 0, 1 or 2, got {self.axis}")
        if self.speed < 0.0:
            raise ValueError("window speed must be non-negative")


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level configuration of one simulation run.

    Neither ``execution`` nor ``domain`` changes which stages run
    (:mod:`repro.pipeline`): ``execution`` changes how each stage shards
    its tiles, a decomposed ``domain`` how the solve stage updates the
    fields.
    """

    grid: GridConfig
    species: Tuple[SpeciesConfig, ...] = (SpeciesConfig(),)
    shape_order: int = SHAPE_ORDER_CIC
    cfl: float = 1.0
    max_steps: int = 100
    field_solver: str = "ckc"
    laser: LaserConfig | None = None
    moving_window: MovingWindowConfig = field(default_factory=MovingWindowConfig)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    domain: DomainConfig = field(default_factory=DomainConfig)
    #: observability selection (:mod:`repro.obs`); inert to results —
    #: excluded from checkpoint fingerprints and campaign cache keys
    observe: ObsConfig = field(default_factory=ObsConfig)
    seed: int = 12345

    def __post_init__(self) -> None:
        if self.shape_order not in SUPPORTED_SHAPE_ORDERS:
            raise ValueError(
                f"shape_order must be one of {SUPPORTED_SHAPE_ORDERS}, got {self.shape_order}"
            )
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        if self.field_solver not in ("yee", "ckc", "none"):
            raise ValueError(f"unknown field solver {self.field_solver!r}")
        if isinstance(self.species, SpeciesConfig):
            object.__setattr__(self, "species", (self.species,))
        else:
            object.__setattr__(self, "species", tuple(self.species))

    def with_updates(self, **kwargs) -> "SimulationConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    @property
    def time_step(self) -> float:
        """CFL-limited time step for the explicit FDTD solver [s]."""
        dx, dy, dz = self.grid.cell_size
        inv = (1.0 / dx**2 + 1.0 / dy**2 + 1.0 / dz**2) ** 0.5
        return self.cfl / (constants.C_LIGHT * inv)
