"""Structured grid and field storage.

The grid stores the electromagnetic field components and the deposited
current/charge densities as dense ``(nx, ny, nz)`` arrays.  Staggering of
the Yee mesh is handled implicitly by the field solver (arrays are indexed
so that ``ex[i, j, k]`` lives at ``(i + 1/2, j, k)`` and so on); current and
charge are node-centred, matching the rhocell formulation of the paper in
which each particle deposits onto the vertices of its cell.

Index wrapping for periodic axes and clamping for non-periodic axes is
defined once in :func:`repro.pic.stencil.wrap_axis_indices`;
:meth:`Grid.wrap_node_index` delegates to it, so cell indexing,
redistribution and every deposition kernel — the scalar reference, the
rhocell variants and the MPU hybrid kernel — share one convention and
produce bit-identical grid currents.

Nothing here is pooled: a sharded deposit's task builds its own scratch
:class:`Grid` from the config and a :func:`grid_geometry` snapshot.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.config import GridConfig
from repro.pic.stencil import wrap_axis_indices


class Grid:
    """Field and current storage for one MPI-rank-equivalent domain."""

    def __init__(self, config: GridConfig):
        self.config = config
        nx, ny, nz = config.n_cell
        self.shape = (nx, ny, nz)
        self.lo = np.asarray(config.lo, dtype=np.float64)
        self.hi = np.asarray(config.hi, dtype=np.float64)
        self.cell_size = np.asarray(config.cell_size, dtype=np.float64)
        self.periodic = np.asarray(
            [bc == "periodic" for bc in config.field_boundary], dtype=bool
        )

        self.ex = np.zeros(self.shape)
        self.ey = np.zeros(self.shape)
        self.ez = np.zeros(self.shape)
        self.bx = np.zeros(self.shape)
        self.by = np.zeros(self.shape)
        self.bz = np.zeros(self.shape)
        self.jx = np.zeros(self.shape)
        self.jy = np.zeros(self.shape)
        self.jz = np.zeros(self.shape)
        self.rho = np.zeros(self.shape)

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        """Total number of cells (== number of nodes with periodic wrap)."""
        return int(np.prod(self.shape))

    def normalized_position(self, x: np.ndarray, y: np.ndarray, z: np.ndarray
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Grid-normalised coordinates ``(x - lo) / dx`` per axis."""
        xi = (np.asarray(x) - self.lo[0]) / self.cell_size[0]
        yi = (np.asarray(y) - self.lo[1]) / self.cell_size[1]
        zi = (np.asarray(z) - self.lo[2]) / self.cell_size[2]
        return xi, yi, zi

    def cell_index(self, x: np.ndarray, y: np.ndarray, z: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integer cell indices of positions, wrapped/clamped per axis."""
        indices = []
        for axis, normal in enumerate(self.normalized_position(x, y, z)):
            # the floor cast straight into int64: floor().astype(int64)'s
            # bits without the float temporary
            floor = np.empty(np.shape(normal), dtype=np.int64)
            np.floor(normal, out=floor, casting="unsafe")
            indices.append(self.wrap_node_index(floor, axis=axis))
        return tuple(indices)  # type: ignore[return-value]

    def wrap_node_index(self, idx: np.ndarray, axis: int) -> np.ndarray:
        """Wrap (periodic) or clamp (non-periodic) node indices on ``axis``."""
        return wrap_axis_indices(np.asarray(idx), self.shape[axis],
                                 bool(self.periodic[axis]))

    def linear_cell_id(self, ix: np.ndarray, iy: np.ndarray, iz: np.ndarray
                       ) -> np.ndarray:
        """Row-major linear cell id for (ix, iy, iz) triples."""
        _, ny, nz = self.shape
        cells = np.asarray(ix) * ny
        cells += iy
        cells *= nz
        cells += iz
        return cells

    # ------------------------------------------------------------------
    # field/current management
    # ------------------------------------------------------------------
    def zero_currents(self) -> None:
        """Reset the current density accumulators before deposition."""
        self.jx.fill(0.0)
        self.jy.fill(0.0)
        self.jz.fill(0.0)

    def current_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (jx, jy, jz) arrays, for deposition kernels."""
        return self.jx, self.jy, self.jz

    def field_arrays(self) -> Dict[str, np.ndarray]:
        """All field components keyed by their conventional names."""
        return {
            "ex": self.ex, "ey": self.ey, "ez": self.ez,
            "bx": self.bx, "by": self.by, "bz": self.bz,
            "jx": self.jx, "jy": self.jy, "jz": self.jz,
            "rho": self.rho,
        }

    def field_energy(self) -> float:
        """Total electromagnetic field energy in the domain [J]."""
        from repro import constants

        cell_volume = float(np.prod(self.cell_size))
        e2 = self.ex**2 + self.ey**2 + self.ez**2
        b2 = self.bx**2 + self.by**2 + self.bz**2
        return float(
            0.5 * cell_volume * (constants.EPSILON_0 * e2.sum()
                                 + b2.sum() / constants.MU_0)
        )


def grid_geometry(grid: "Grid") -> Tuple:
    """Snapshot ``(lo, hi)`` of what a config-built grid lacks: the
    *live* physical corners.

    ``GridConfig`` is frozen, but the moving window advances ``grid.lo``
    and ``grid.hi`` past the configured values.  Executor shard tasks
    that build a scratch grid from the config must restore the live
    corners with :func:`apply_grid_geometry`, otherwise they would
    normalise particle positions against a stale origin.
    """
    return grid.lo.copy(), grid.hi.copy()


def apply_grid_geometry(grid: "Grid", geometry: Tuple) -> "Grid":
    """Impose a :func:`grid_geometry` snapshot onto a (scratch) grid."""
    lo, hi = geometry
    grid.lo[...] = lo
    grid.hi[...] = hi
    return grid

