"""Subdomain geometry: axis-aligned blocks over the particle-tile lattice.

A :class:`Decomposition` splits the global grid into a ``(px, py, pz)``
block of :class:`Subdomain` boxes.  Subdomain boundaries are aligned with
the particle-tile lattice so that every tile — the unit of work of every
per-tile stage (:mod:`repro.exec`) — belongs to exactly one subdomain and
the tile-major determinism contract survives the decomposition untouched.

Each subdomain owns:

* its **interior** cell window ``[cell_lo, cell_hi)`` (global indices) —
  the cells/nodes it is authoritative for,
* a halo-padded local field **slab**: a :class:`~repro.pic.grid.Grid` of
  shape ``interior + 2 * halo`` whose cell ``local = global - origin``
  with ``origin = cell_lo - halo``.  The halo ring is refreshed by
  :class:`repro.domain.halo.HaloExchange` and covers the field solver's
  one-cell reach (no wrapping inside a subdomain — the pad holds the
  wrapped values instead).  The slab is the decomposed solve's scratch;
  the frame grid stays the array of record.

The per-axis split reuses the contiguous first-gets-extra partition of
:func:`repro.exec.base.partition_shards`, which is also how the executor
shards tiles — one partition rule across the whole library.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.config import GridConfig
from repro.exec.base import partition_shards
from repro.pic.grid import Grid


class Subdomain:
    """One axis-aligned block of the decomposition."""

    def __init__(self, index: Tuple[int, int, int], linear_index: int,
                 cell_lo: Tuple[int, int, int], cell_hi: Tuple[int, int, int],
                 tile_ids: Tuple[int, ...], halo: int):
        #: position of the block within the (px, py, pz) domain grid
        self.index = index
        #: row-major linear id of the block
        self.linear_index = linear_index
        #: inclusive lower global cell index of the interior, per axis
        self.cell_lo = cell_lo
        #: exclusive upper global cell index of the interior, per axis
        self.cell_hi = cell_hi
        #: linear ids (container order) of the particle tiles owned
        self.tile_ids = tile_ids
        #: ghost-ring width in cells
        self.halo = halo
        #: global cell index of the slab's first (ghost) cell, per axis
        self.origin = tuple(lo - halo for lo in cell_lo)
        #: halo-padded local slab shape, per axis
        self.slab_shape = tuple(hi - lo + 2 * halo
                                for lo, hi in zip(cell_lo, cell_hi))
        #: the local field slab (attached by :meth:`Decomposition.build_slabs`)
        self.slab: Grid | None = None

    # ------------------------------------------------------------------
    @property
    def interior_shape(self) -> Tuple[int, int, int]:
        """Cells per axis of the interior window."""
        return tuple(hi - lo for lo, hi in zip(self.cell_lo, self.cell_hi))

    @property
    def interior_slices(self) -> Tuple[slice, slice, slice]:
        """Slab-local slices selecting the interior window."""
        h = self.halo
        return tuple(slice(h, h + d) for d in self.interior_shape)

    @property
    def global_slices(self) -> Tuple[slice, slice, slice]:
        """Global-grid slices selecting the interior window."""
        return tuple(slice(lo, hi) for lo, hi in zip(self.cell_lo, self.cell_hi))

    def interior_view(self, slab_array: np.ndarray) -> np.ndarray:
        """The interior window view of one of the slab's dense arrays."""
        return slab_array[self.interior_slices]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Subdomain(index={self.index}, cell_lo={self.cell_lo}, "
                f"cell_hi={self.cell_hi}, tiles={len(self.tile_ids)})")


class Decomposition:
    """Partition of the grid (and its tile lattice) into subdomains.

    ``halo`` defaults to the field solver's reach: each leap-frog
    sub-update reads at most one cell past the cells it keeps.
    """

    def __init__(self, grid_config: GridConfig,
                 domains: Sequence[int], halo: int = 1):
        self.grid_config = grid_config
        self.domains = tuple(int(d) for d in domains)
        if len(self.domains) != 3 or any(d <= 0 for d in self.domains):
            raise ValueError(
                f"domains must be 3 positive integers, got {domains!r}")
        if int(halo) <= 0:
            raise ValueError(f"halo must be positive, got {halo}")
        self.halo = int(halo)

        nx, ny, nz = grid_config.n_cell
        tx, ty, tz = grid_config.tile_size
        self.tiles_per_axis = (-(-nx // tx), -(-ny // ty), -(-nz // tz))
        for axis, (p, t) in enumerate(zip(self.domains, self.tiles_per_axis)):
            if p > t:
                raise ValueError(
                    f"cannot split {t} tile(s) along axis {axis} into {p} "
                    f"subdomains — subdomain boundaries are tile-aligned"
                )

        # per-axis contiguous tile chunks -> cell boundaries
        tile_sizes = (tx, ty, tz)
        self._axis_cells: List[List[Tuple[int, int]]] = []
        self._axis_tiles: List[List[Tuple[int, int]]] = []
        for axis in range(3):
            chunks = partition_shards(self.tiles_per_axis[axis],
                                      self.domains[axis])
            tiles_axis = [(c.tile_indices[0], c.tile_indices[-1] + 1)
                          for c in chunks]
            n = grid_config.n_cell[axis]
            t = tile_sizes[axis]
            cells_axis = [(lo * t, min(hi * t, n)) for lo, hi in tiles_axis]
            self._axis_tiles.append(tiles_axis)
            self._axis_cells.append(cells_axis)

        # build subdomains in row-major (x-major) order
        ntx, nty, ntz = self.tiles_per_axis
        self.subdomains: List[Subdomain] = []
        for ix in range(self.domains[0]):
            for iy in range(self.domains[1]):
                for iz in range(self.domains[2]):
                    cell_lo = (self._axis_cells[0][ix][0],
                               self._axis_cells[1][iy][0],
                               self._axis_cells[2][iz][0])
                    cell_hi = (self._axis_cells[0][ix][1],
                               self._axis_cells[1][iy][1],
                               self._axis_cells[2][iz][1])
                    tile_ids = tuple(
                        (itx * nty + ity) * ntz + itz
                        for itx in range(*self._axis_tiles[0][ix])
                        for ity in range(*self._axis_tiles[1][iy])
                        for itz in range(*self._axis_tiles[2][iz])
                    )
                    linear = (ix * self.domains[1] + iy) * self.domains[2] + iz
                    self.subdomains.append(Subdomain(
                        (ix, iy, iz), linear, cell_lo, cell_hi, tile_ids,
                        self.halo,
                    ))

        #: linear tile id -> linear subdomain id
        self.tile_owner = np.empty(
            (int(np.prod(self.tiles_per_axis)),), dtype=np.int64)
        for sub in self.subdomains:
            self.tile_owner[list(sub.tile_ids)] = sub.linear_index

        #: per-axis map: global cell index -> domain position along the axis
        self._cell_owner_axis: List[np.ndarray] = []
        for axis in range(3):
            owner = np.empty((grid_config.n_cell[axis],), dtype=np.int64)
            for pos, (lo, hi) in enumerate(self._axis_cells[axis]):
                owner[lo:hi] = pos
            self._cell_owner_axis.append(owner)

    # ------------------------------------------------------------------
    @property
    def num_domains(self) -> int:
        """Total number of subdomains."""
        return len(self.subdomains)

    def axis_windows(self, axis: int) -> List[Tuple[int, int]]:
        """The ``(cell_lo, cell_hi)`` interior windows along one axis."""
        return list(self._axis_cells[axis])

    def domain_at(self, index: Tuple[int, int, int]) -> Subdomain:
        """The subdomain at a (ix, iy, iz) block position."""
        ix, iy, iz = index
        linear = (ix * self.domains[1] + iy) * self.domains[2] + iz
        return self.subdomains[linear]

    def owner_along_axis(self, axis: int, cell: int) -> int:
        """Domain position along ``axis`` owning a (in-range) global cell."""
        return int(self._cell_owner_axis[axis][cell])

    # ------------------------------------------------------------------
    def build_slabs(self, frame: Grid) -> None:
        """Allocate every subdomain's halo-padded local field slab.

        ``frame`` is the global grid; its cell size is copied verbatim
        onto the slabs (recomputing ``(hi - lo) / n`` from the slab's own
        physical corners could differ in the last ulp, which would break
        the bitwise contract of the local field solve).
        """
        dx = frame.cell_size
        for sub in self.subdomains:
            lo = tuple(frame.lo[a] + sub.origin[a] * dx[a] for a in range(3))
            hi = tuple(lo[a] + sub.slab_shape[a] * dx[a] for a in range(3))
            config = GridConfig(
                n_cell=sub.slab_shape, lo=lo, hi=hi,
                tile_size=self.grid_config.tile_size,
                field_boundary=self.grid_config.field_boundary,
                particle_boundary=self.grid_config.particle_boundary,
            )
            sub.slab = Grid(config, frame.kernels)
            sub.slab.cell_size = frame.cell_size.copy()
