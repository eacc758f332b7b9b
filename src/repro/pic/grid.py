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
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backend import ActiveKernels, activate
from repro.config import GridConfig
from repro.pic.stencil import wrap_axis_indices


class Grid:
    """Field and current storage for one MPI-rank-equivalent domain."""

    def __init__(self, config: GridConfig,
                 kernels: Optional[ActiveKernels] = None):
        self.config = config
        #: kernel dispatch table of the run that owns this grid; every
        #: stencil built on the grid scatters through it.  A grid with
        #: no run gets the default selection.
        self.kernels = kernels if kernels is not None else activate()
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
        xi, yi, zi = self.normalized_position(x, y, z)
        ix = np.floor(xi).astype(np.int64)
        iy = np.floor(yi).astype(np.int64)
        iz = np.floor(zi).astype(np.int64)
        return (
            self.wrap_node_index(ix, axis=0),
            self.wrap_node_index(iy, axis=1),
            self.wrap_node_index(iz, axis=2),
        )

    def wrap_node_index(self, idx: np.ndarray, axis: int) -> np.ndarray:
        """Wrap (periodic) or clamp (non-periodic) node indices on ``axis``."""
        return wrap_axis_indices(np.asarray(idx), self.shape[axis],
                                 bool(self.periodic[axis]))

    def linear_cell_id(self, ix: np.ndarray, iy: np.ndarray, iz: np.ndarray
                       ) -> np.ndarray:
        """Row-major linear cell id for (ix, iy, iz) triples."""
        _, ny, nz = self.shape
        return (np.asarray(ix) * ny + np.asarray(iy)) * nz + np.asarray(iz)

    def unravel_cell_id(self, cell_id: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Inverse of :meth:`linear_cell_id`."""
        _, ny, nz = self.shape
        cell_id = np.asarray(cell_id)
        iz = cell_id % nz
        iy = (cell_id // nz) % ny
        ix = cell_id // (ny * nz)
        return ix, iy, iz

    # ------------------------------------------------------------------
    # field/current management
    # ------------------------------------------------------------------
    def zero_currents(self) -> None:
        """Reset the current density accumulators before deposition."""
        self.jx.fill(0.0)
        self.jy.fill(0.0)
        self.jz.fill(0.0)

    def zero_charge(self) -> None:
        """Reset the charge density accumulator."""
        self.rho.fill(0.0)

    def zero_fields(self) -> None:
        """Reset all electromagnetic field components."""
        for arr in (self.ex, self.ey, self.ez, self.bx, self.by, self.bz):
            arr.fill(0.0)

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

    def total_current(self) -> Tuple[float, float, float]:
        """Domain-summed current density, used by conservation checks."""
        return float(self.jx.sum()), float(self.jy.sum()), float(self.jz.sum())

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

    def copy_fields_from(self, other: "Grid") -> None:
        """Copy all field/current arrays from another grid of equal shape."""
        if other.shape != self.shape:
            raise ValueError(
                f"grid shapes differ: {other.shape} vs {self.shape}"
            )
        for name, arr in self.field_arrays().items():
            arr[...] = other.field_arrays()[name]


def grid_geometry(grid: "Grid") -> Tuple:
    """Opaque snapshot of what a config-built grid lacks: the *live*
    physical corners and the owning run's kernel table.

    ``GridConfig`` is frozen, but the moving window advances ``grid.lo``
    and ``grid.hi`` past the configured values.  Executor shard tasks
    that rebuild (or lease) a geometry grid from the config must restore
    the live corners with :func:`apply_grid_geometry`, otherwise they
    would normalise particle positions against a stale origin — and
    must deposit through the caller's kernel tier, not the default one.
    """
    return grid.lo.copy(), grid.hi.copy(), grid.kernels


def apply_grid_geometry(grid: "Grid", geometry: Tuple) -> "Grid":
    """Impose a :func:`grid_geometry` snapshot onto a (scratch) grid."""
    lo, hi, grid.kernels = geometry
    grid.lo[...] = lo
    grid.hi[...] = hi
    return grid


class ScratchGridPool:
    """Reusable scratch :class:`Grid` instances, keyed by geometry.

    The executor shard tasks accumulate into shard-private scratch grids.
    Allocating ten dense arrays per shard per step is pure overhead, so
    callers lease grids here instead: :meth:`acquire` hands out a grid
    with zeroed current and charge accumulators (bit-identical to a fresh
    ``Grid``) and :meth:`release` returns it to the free list.

    Lease discipline: a grid stays checked out until its consumer has
    merged (or abandoned) the arrays it holds — the deposition callers
    release only after the shard merge, because the task's return value
    aliases the scratch arrays.  Field components (``ex`` .. ``bz``) are
    *not* cleared on acquire; deposition tasks never read them.

    The pool is thread-safe (the threads backend runs shard tasks
    concurrently) and per-process (each worker process grows its own).
    The free list is capped (``max_free``, across all geometries):
    releases beyond the cap simply drop the grid, so long-lived campaign
    processes sweeping many grid configurations cannot accumulate
    retained arrays without bound.
    """

    def __init__(self, max_free: int = 32) -> None:
        self.max_free = max_free
        self._free: Dict[GridConfig, List[Grid]] = {}
        self._num_free = 0
        self._lock = threading.Lock()

    def acquire(self, config: GridConfig) -> Grid:
        """A scratch grid for ``config`` with zeroed current/charge."""
        with self._lock:
            stack = self._free.get(config)
            grid = stack.pop() if stack else None
            if grid is not None:
                self._num_free -= 1
        if grid is None:
            return Grid(config)
        grid.zero_currents()
        grid.zero_charge()
        return grid

    def release(self, grid: Grid) -> None:
        """Return a leased grid to the free list (dropped when full)."""
        with self._lock:
            if self._num_free >= self.max_free:
                return
            self._free.setdefault(grid.config, []).append(grid)
            self._num_free += 1

    def clear(self) -> None:
        """Drop all pooled grids (tests / memory pressure)."""
        with self._lock:
            self._free.clear()
            self._num_free = 0


class ScratchArrayPool:
    """Reusable dense float64 scratch arrays, keyed by shape.

    The FDTD solver needs roughly ten grid-shaped temporaries per field
    update (one per spatial derivative plus working buffers for the CKC
    transverse smoothing), and the decomposed window shift needs one
    interior-shaped buffer per field.  Allocating them fresh every step
    is pure overhead, so callers lease arrays here: :meth:`acquire`
    hands out an array of the requested shape (contents unspecified) and
    :meth:`release` returns it to the free list.

    Thread-safe and per-process, like :class:`ScratchGridPool`; the free
    list is capped across all shapes so long-lived processes sweeping
    many geometries cannot retain arrays without bound.
    """

    def __init__(self, max_free: int = 64) -> None:
        self.max_free = max_free
        self._free: Dict[Tuple, List[np.ndarray]] = {}
        self._num_free = 0
        self._lock = threading.Lock()

    def acquire(self, shape: Tuple[int, ...]) -> np.ndarray:
        """A float64 scratch array of ``shape`` (contents unspecified)."""
        key = (tuple(int(s) for s in shape), np.dtype(np.float64))
        with self._lock:
            stack = self._free.get(key)
            arr = stack.pop() if stack else None
            if arr is not None:
                self._num_free -= 1
        if arr is None:
            return np.empty(key[0])
        return arr

    def release(self, arr: np.ndarray) -> None:
        """Return a leased array to the free list (dropped when full).

        The free list is keyed by ``(shape, dtype)`` so a stray
        non-float64 release can never be handed back to a caller
        expecting the float64 arrays :meth:`acquire` produces.
        """
        with self._lock:
            if self._num_free >= self.max_free:
                return
            self._free.setdefault((arr.shape, arr.dtype), []).append(arr)
            self._num_free += 1

    def clear(self) -> None:
        """Drop all pooled arrays (tests / memory pressure)."""
        with self._lock:
            self._free.clear()
            self._num_free = 0


#: process-wide scratch pool shared by every executor shard task
scratch_grids = ScratchGridPool()

#: process-wide scratch array pool (field solver temporaries, window-shift
#: buffers)
scratch_arrays = ScratchArrayPool()
