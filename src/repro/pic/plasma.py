"""Plasma initialisation: particle loading for the paper's workloads.

Two loaders cover the evaluation of the paper:

* :func:`load_uniform_plasma` — the uniform-plasma workload: a homogeneous
  electron population with ``ppc`` particles per cell and a Maxwellian
  momentum spread (Appendix A, Table 4),
* :func:`load_plasma_slab` — the LWFA background plasma: particles loaded
  only inside a z-range, optionally with a longitudinal density profile,
  initially at rest.

Both place particles at jittered sub-cell positions so that deposition
exercises the full range of intra-cell coordinates, and both set the
macro-particle weight so the physical density is reproduced exactly:
``w = density * cell_volume / ppc``.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.config import SpeciesConfig
from repro.pic.grid import Grid
from repro.pic.particles import ParticleContainer


def _cell_positions(grid: Grid, cells: Tuple[np.ndarray, np.ndarray, np.ndarray],
                    ppc: Tuple[int, int, int], rng: np.random.Generator,
                    jitter: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sub-cell particle positions for the given cells (one ppc block each)."""
    ix, iy, iz = cells
    px, py, pz = ppc
    n_cells = ix.shape[0]
    # regular sub-cell lattice
    fx = (np.arange(px) + 0.5) / px
    fy = (np.arange(py) + 0.5) / py
    fz = (np.arange(pz) + 0.5) / pz
    sub = np.stack(np.meshgrid(fx, fy, fz, indexing="ij"), axis=-1).reshape(-1, 3)
    n_sub = sub.shape[0]

    offsets = np.tile(sub, (n_cells, 1))
    if jitter > 0.0:
        spacing = np.array([1.0 / px, 1.0 / py, 1.0 / pz])
        offsets = offsets + rng.uniform(-0.5, 0.5, offsets.shape) * spacing * jitter
        offsets = np.clip(offsets, 1.0e-6, 1.0 - 1.0e-6)

    cell_x = np.repeat(ix, n_sub)
    cell_y = np.repeat(iy, n_sub)
    cell_z = np.repeat(iz, n_sub)
    dx, dy, dz = grid.cell_size
    x = grid.lo[0] + (cell_x + offsets[:, 0]) * dx
    y = grid.lo[1] + (cell_y + offsets[:, 1]) * dy
    z = grid.lo[2] + (cell_z + offsets[:, 2]) * dz
    return x, y, z


def load_uniform_plasma(grid: Grid, container: ParticleContainer,
                        species: SpeciesConfig,
                        rng: Optional[np.random.Generator] = None,
                        jitter: float = 0.5) -> int:
    """Fill the whole domain with a uniform plasma; returns particles added."""
    rng = np.random.default_rng(0) if rng is None else rng
    nx, ny, nz = grid.shape
    ix, iy, iz = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                             indexing="ij")
    cells = (ix.ravel(), iy.ravel(), iz.ravel())
    return _load_cells(grid, container, species, cells, rng, jitter)


def load_plasma_slab(grid: Grid, container: ParticleContainer,
                     species: SpeciesConfig, z_lo: float, z_hi: float,
                     density_profile: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                     rng: Optional[np.random.Generator] = None,
                     jitter: float = 0.5) -> int:
    """Load plasma only inside ``[z_lo, z_hi)``; returns particles added.

    ``density_profile`` maps z coordinates to a multiplicative factor of the
    species density (used by the LWFA workload for its up-ramp).
    """
    rng = np.random.default_rng(0) if rng is None else rng
    nx, ny, nz = grid.shape
    dz = grid.cell_size[2]
    z_centers = grid.lo[2] + (np.arange(nz) + 0.5) * dz
    in_slab = np.nonzero((z_centers >= z_lo) & (z_centers < z_hi))[0]
    if in_slab.size == 0:
        return 0
    ix, iy, iz = np.meshgrid(np.arange(nx), np.arange(ny), in_slab, indexing="ij")
    cells = (ix.ravel(), iy.ravel(), iz.ravel())
    return _load_cells(grid, container, species, cells, rng, jitter,
                       density_profile=density_profile)


def _load_cells(grid: Grid, container: ParticleContainer, species: SpeciesConfig,
                cells: Tuple[np.ndarray, np.ndarray, np.ndarray],
                rng: np.random.Generator, jitter: float,
                density_profile: Optional[Callable[[np.ndarray], np.ndarray]] = None
                ) -> int:
    ppc = species.ppc
    n_per_cell = species.particles_per_cell
    x, y, z = _cell_positions(grid, cells, ppc, rng, jitter)
    n = x.shape[0]
    if n == 0:
        return 0

    cell_volume = float(np.prod(grid.cell_size))
    weight = species.density * cell_volume / n_per_cell
    w = np.full(n, weight)
    if density_profile is not None:
        w = w * np.asarray(density_profile(z), dtype=np.float64)

    vth = species.thermal_velocity
    if vth > 0.0:
        ux = rng.normal(0.0, vth, n)
        uy = rng.normal(0.0, vth, n)
        uz = rng.normal(0.0, vth, n)
    else:
        ux = uy = uz = np.zeros((n,))

    container.add_particles(grid, x=x, y=y, z=z, ux=ux, uy=uy, uz=uz, w=w)
    return n
