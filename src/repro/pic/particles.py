"""Tiled Structure-of-Arrays particle storage.

Particles are stored per species in a :class:`ParticleContainer`, which
splits the domain into tiles of ``particles.tile_size`` cells exactly as in
the paper (Appendix A uses 8x8x8 for the uniform plasma and 8x8x64 for the
LWFA workload).  Each :class:`ParticleTile` owns SoA arrays for positions,
momenta, weights and ids, plus an optional ``sorter`` slot that the
Matrix-PIC framework populates with the tile's GPMA structure (§4.3).

The container is also responsible for the per-step redistribution that in
WarpX happens in the particle exchange: applying the periodic/absorbing
particle boundary conditions and moving particles whose positions left
their tile into the owning tile.  Both run over many tiles per NumPy
call: the wrap and the owner scan once per executor shard on the shard's
concatenated coordinates, and the migration as one stable regroup of
the changed tiles (:meth:`ParticleContainer.redistribute`, which states
the storage-order contract the deposition's summation order rests on).

A tile's SoA arrays may therefore be slices of a batch array shared with
other tiles (the pusher hands out slices too, :mod:`repro.pic.pusher`).
The slices are disjoint, so writing into one tile's arrays never touches
another tile's particles.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.config import GridConfig, SpeciesConfig
from repro.exec import TileExecutor, map_shards
from repro.pic.blocks import stable_order_by_bin
from repro.pic.grid import Grid

_SOA_FIELDS = ("x", "y", "z", "ux", "uy", "uz", "w")


class ParticleTile:
    """Particles belonging to one tile of cells, stored as SoA arrays."""

    def __init__(self, tile_index: Tuple[int, int, int],
                 cell_lo: Tuple[int, int, int],
                 cell_hi: Tuple[int, int, int]):
        self.tile_index = tile_index
        #: inclusive lower cell index of the tile box, per axis
        self.cell_lo = tuple(int(v) for v in cell_lo)
        #: exclusive upper cell index of the tile box, per axis
        self.cell_hi = tuple(int(v) for v in cell_hi)
        self.x = np.empty((0,))
        self.y = np.empty((0,))
        self.z = np.empty((0,))
        self.ux = np.empty((0,))
        self.uy = np.empty((0,))
        self.uz = np.empty((0,))
        self.w = np.empty((0,))
        self.ids = np.empty((0,), dtype=np.int64)
        #: slot used by repro.core to attach the tile's GPMA sorter
        self.sorter = None

    # ------------------------------------------------------------------
    @property
    def num_particles(self) -> int:
        """Number of particles currently stored in the tile."""
        return self.x.shape[0]

    @property
    def tile_cells(self) -> Tuple[int, int, int]:
        """Number of cells covered by the tile, per axis."""
        return tuple(h - l for l, h in zip(self.cell_lo, self.cell_hi))

    @property
    def num_cells(self) -> int:
        """Total number of cells in the tile."""
        cx, cy, cz = self.tile_cells
        return cx * cy * cz

    def soa(self) -> Dict[str, np.ndarray]:
        """All SoA arrays keyed by name (positions, momenta, weight, ids)."""
        data = {name: getattr(self, name) for name in _SOA_FIELDS}
        data["ids"] = self.ids
        return data

    # ------------------------------------------------------------------
    def append(self, **arrays: np.ndarray) -> None:
        """Append particles given as keyword SoA arrays.

        Missing momentum/weight arrays default to zero / one.  ``ids`` may be
        omitted, in which case the caller is expected to re-id afterwards.
        """
        n = len(np.asarray(arrays["x"]))
        for name in _SOA_FIELDS:
            if name in arrays:
                new = np.asarray(arrays[name], dtype=np.float64)
            elif name == "w":
                new = np.ones(n)
            else:
                new = np.zeros((n,))
            if new.shape[0] != n:
                raise ValueError(
                    f"SoA field {name!r} has length {new.shape[0]}, expected {n}"
                )
            setattr(self, name, np.concatenate([getattr(self, name), new]))
        new_ids = np.asarray(arrays.get("ids", np.full(n, -1)),
                             dtype=np.int64)
        self.ids = np.concatenate([self.ids, new_ids])
        self.sorter = None  # any attached GPMA is now stale

    def remove(self, mask: np.ndarray) -> Dict[str, np.ndarray]:
        """Remove particles where ``mask`` is True and return their SoA data."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != self.num_particles:
            raise ValueError("mask length does not match particle count")
        removed = {name: getattr(self, name)[mask] for name in _SOA_FIELDS}
        removed["ids"] = self.ids[mask]
        keep = ~mask
        for name in _SOA_FIELDS:
            setattr(self, name, getattr(self, name)[keep])
        self.ids = self.ids[keep]
        self.sorter = None
        return removed

    def local_cell_ids(self, grid: Grid) -> np.ndarray:
        """Row-major cell index of each particle *within the tile*.

        Particles that have moved outside the tile box get indices computed
        from their clamped global cell, which keeps the ids in range; the
        redistribution step is responsible for relocating such particles.
        """
        ix, iy, iz = grid.cell_index(self.x, self.y, self.z)
        return self.local_ids_from_cells(ix, iy, iz)

    def local_ids_from_cells(self, ix: np.ndarray, iy: np.ndarray,
                             iz: np.ndarray) -> np.ndarray:
        """Tile-local cell ids from already-wrapped global cell indices.

        The single definition of the clip-into-tile-box convention; the
        deposition staging path calls this with its own wrapped indices
        to avoid re-normalising the positions.
        """
        cx, cy, cz = self.tile_cells
        lx = np.clip(ix - self.cell_lo[0], 0, cx - 1)
        ly = np.clip(iy - self.cell_lo[1], 0, cy - 1)
        lz = np.clip(iz - self.cell_lo[2], 0, cz - 1)
        return (lx * cy + ly) * cz + lz

    def permute(self, order: np.ndarray) -> None:
        """Reorder the SoA arrays in-place following ``order``."""
        order = np.asarray(order, dtype=np.int64)
        if order.shape[0] != self.num_particles:
            raise ValueError("permutation length does not match particle count")
        for name in _SOA_FIELDS:
            setattr(self, name, getattr(self, name)[order])
        self.ids = self.ids[order]


def concat_tiles(tiles: Sequence[ParticleTile], name: str) -> np.ndarray:
    """The ``name`` SoA array of ``tiles`` joined in tile order.

    One tile's own array is returned as is, not copied: callers only
    read the result.
    """
    arrays = [getattr(tile, name) for tile in tiles]
    if len(arrays) == 1:
        return arrays[0]
    return np.concatenate(arrays or [np.empty((0,))])


def split_to_tiles(tiles: Sequence[ParticleTile], ends: Sequence[int],
                   arrays: Dict[str, np.ndarray]) -> None:
    """Give each tile its slice of every batch array in ``arrays``.

    Tile ``k`` gets ``[ends[k - 1], ends[k])`` (from 0 for the first),
    as views: the batch arrays are shared, their slices disjoint.
    """
    start = 0
    for tile, end in zip(tiles, ends):
        for name, values in arrays.items():
            setattr(tile, name, values[start:end])
        start = end


def _boundary_shard(tiles: List[ParticleTile], lo: np.ndarray, hi: np.ndarray,
                    extent: np.ndarray, periodic: Tuple[bool, ...]) -> int:
    """Executor task: boundary conditions for one shard of tiles.

    Periodic axes are wrapped in one pass over the shard's concatenated
    coordinates (each tile gets its slice back); the open-axis absorb
    mask is computed on the concatenation too, and only the tiles whose
    slice of it has a hit remove particles.  Returns the removed count.
    """
    counts = [tile.num_particles for tile in tiles]
    ends = np.cumsum(counts, dtype=np.int64)
    absorb = np.zeros(sum(counts), dtype=bool)
    for axis, name in enumerate(("x", "y", "z")):
        coords = concat_tiles(tiles, name)
        if periodic[axis]:
            # lo + mod(coords - lo, extent): np.mod costs several compares
            # and is the identity on the open interval (0, extent), so only
            # the offsets outside it go through np.mod (same bits)
            offset = coords - lo[axis]
            outside = ~((offset > 0.0) & (offset < extent[axis]))
            offset[outside] = np.mod(offset[outside], extent[axis])
            split_to_tiles(tiles, ends, {name: lo[axis] + offset})
        else:
            absorb |= (coords < lo[axis]) | (coords >= hi[axis])
    hits = np.flatnonzero(absorb)
    for k in np.unique(np.searchsorted(ends, hits, side="right")):
        tiles[k].remove(absorb[ends[k] - counts[k]:ends[k]])
    return int(hits.shape[0])


def _owner_scan_shard(entries: List[Tuple[int, ParticleTile]],
                      container: "ParticleContainer", grid: Grid
                      ) -> np.ndarray:
    """Executor task: the owning tile of every particle of a shard.

    One cell-index + owner lookup over the shard's concatenated
    positions (read-only); returned in entry order, particle by particle.
    """
    tiles = [tile for _, tile in entries]
    ix, iy, iz = grid.cell_index(concat_tiles(tiles, "x"),
                                 concat_tiles(tiles, "y"),
                                 concat_tiles(tiles, "z"))
    return container.tile_of_cell(ix, iy, iz)


def record_nothing(source_tile_id: int, owner_tile_ids: np.ndarray) -> None:
    """The default ``move_recorder`` of :meth:`ParticleContainer.redistribute`."""


def _kinetic_shard(tiles: List[ParticleTile], mass: float) -> float:
    """Executor task: relativistic kinetic energy of one shard of tiles."""
    from repro import constants

    total = 0.0
    c2 = constants.C_LIGHT**2
    for tile in tiles:
        u2 = tile.ux**2 + tile.uy**2 + tile.uz**2
        gamma = np.sqrt(1.0 + u2 / c2)
        total += float(np.sum(tile.w * (gamma - 1.0)) * mass * c2)
    return total


class ParticleContainer:
    """All particles of one species, split into tiles over the domain."""

    def __init__(self, grid_config: GridConfig, species: SpeciesConfig):
        self.grid_config = grid_config
        self.species = species
        self._next_id = 0
        nx, ny, nz = grid_config.n_cell
        tx, ty, tz = grid_config.tile_size
        self.tiles_per_axis = (
            -(-nx // tx), -(-ny // ty), -(-nz // tz)  # ceil division
        )
        self.tiles: List[ParticleTile] = []
        for itx in range(self.tiles_per_axis[0]):
            for ity in range(self.tiles_per_axis[1]):
                for itz in range(self.tiles_per_axis[2]):
                    lo = (itx * tx, ity * ty, itz * tz)
                    hi = (min((itx + 1) * tx, nx),
                          min((ity + 1) * ty, ny),
                          min((itz + 1) * tz, nz))
                    self.tiles.append(ParticleTile((itx, ity, itz), lo, hi))

    # ------------------------------------------------------------------
    @property
    def charge(self) -> float:
        """Charge of one physical particle of the species [C]."""
        return self.species.charge

    @property
    def mass(self) -> float:
        """Mass of one physical particle of the species [kg]."""
        return self.species.mass

    @property
    def num_particles(self) -> int:
        """Total number of macro-particles across all tiles."""
        return sum(tile.num_particles for tile in self.tiles)

    def iter_tiles(self) -> Iterator[ParticleTile]:
        """Iterate over the tiles (including empty ones)."""
        return iter(self.tiles)

    def nonempty_tiles(self) -> List[ParticleTile]:
        """Tiles that currently hold at least one particle."""
        return [tile for tile in self.tiles if tile.num_particles > 0]

    # ------------------------------------------------------------------
    def tile_of_cell(self, ix: np.ndarray, iy: np.ndarray, iz: np.ndarray
                     ) -> np.ndarray:
        """Linear tile index owning each (ix, iy, iz) cell triple."""
        tx, ty, tz = self.grid_config.tile_size
        ntx, nty, ntz = self.tiles_per_axis
        itx = np.clip(np.asarray(ix) // tx, 0, ntx - 1)
        ity = np.clip(np.asarray(iy) // ty, 0, nty - 1)
        itz = np.clip(np.asarray(iz) // tz, 0, ntz - 1)
        return (itx * nty + ity) * ntz + itz

    def add_particles(self, grid: Grid, *, x: np.ndarray, y: np.ndarray,
                      z: np.ndarray, ux: Optional[np.ndarray] = None,
                      uy: Optional[np.ndarray] = None,
                      uz: Optional[np.ndarray] = None,
                      w: Optional[np.ndarray] = None) -> None:
        """Add particles, routing each one to the tile that owns its cell."""
        x = np.asarray(x, dtype=np.float64)
        n = x.shape[0]
        if n == 0:
            return
        y = np.asarray(y, dtype=np.float64)
        z = np.asarray(z, dtype=np.float64)
        ux = np.zeros((n,)) if ux is None \
            else np.asarray(ux, dtype=np.float64)
        uy = np.zeros((n,)) if uy is None \
            else np.asarray(uy, dtype=np.float64)
        uz = np.zeros((n,)) if uz is None \
            else np.asarray(uz, dtype=np.float64)
        w = np.ones(n) if w is None \
            else np.asarray(w, dtype=np.float64)
        ids = np.arange(self._next_id, self._next_id + n, dtype=np.int64)
        self._next_id += n

        ix, iy, iz = grid.cell_index(x, y, z)
        tile_ids = self.tile_of_cell(ix, iy, iz)
        for tid in np.unique(tile_ids):
            sel = tile_ids == tid
            self.tiles[tid].append(
                x=x[sel], y=y[sel], z=z[sel],
                ux=ux[sel], uy=uy[sel], uz=uz[sel],
                w=w[sel], ids=ids[sel],
            )

    # ------------------------------------------------------------------
    def apply_boundary_conditions(self, grid: Grid,
                                  executor: Optional[TileExecutor] = None
                                  ) -> int:
        """Wrap periodic axes and absorb particles leaving open boundaries.

        Returns the number of particles removed by absorbing boundaries.
        Tiles are independent and mutate in place; the per-tile work is
        sharded through :func:`~repro.exec.map_shards`.
        """
        lo, hi = grid.lo, grid.hi
        periodic = tuple(
            bc == "periodic" for bc in self.grid_config.particle_boundary
        )
        return sum(map_shards(executor, _boundary_shard,
                              self.nonempty_tiles(), lo, hi, hi - lo,
                              periodic))

    def redistribute(self, grid: Grid,
                     executor: Optional[TileExecutor] = None,
                     move_recorder: Callable[[int, np.ndarray], None]
                     = record_nothing) -> int:
        """Move particles that left their tile into the owning tile.

        Returns the number of particles moved between tiles.  Boundary
        conditions must already have been applied, so every particle maps to
        a valid tile.

        The read-only scan (cell index + owning tile of every particle)
        runs once per shard of the ``executor`` over the shard's
        concatenated positions.  The moves are then applied as one stable
        regroup of the changed tiles' concatenated SoA arrays — the tiles
        that lose or gain a particle — by the key ``2 * destination +
        is_arrival``.  That is the storage-order contract, the same for
        every backend: a tile keeps its stayers in their order, followed
        by its arrivals in ascending source-tile order, each source's in
        its storage order.  A changed tile's arrays become slices of the
        regrouped arrays and its ``sorter`` is cleared (its population
        changed, even when its count did not); every other tile keeps
        its arrays and its ``sorter`` object.

        ``move_recorder`` is called, in ascending source-tile order, as
        ``move_recorder(source_tile_id, owner_tile_ids)`` with the
        destination tile of every particle leaving that source — the
        hook the domain decomposition uses to account for particles
        migrating between subdomains without a second scan.
        """
        entries = [(tile_id, tile) for tile_id, tile in enumerate(self.tiles)
                   if tile.num_particles > 0]
        owner = np.concatenate(map_shards(
            executor, _owner_scan_shard, entries, self, grid))
        source = np.repeat(
            np.array([tile_id for tile_id, _ in entries], dtype=np.int64),
            [tile.num_particles for _, tile in entries])
        leaving = owner != source
        departures, destinations = source[leaving], owner[leaving]

        sources, first = np.unique(departures, return_index=True)
        for tile_id, owners in zip(sources.tolist(),
                                   np.split(destinations, first[1:])):
            move_recorder(tile_id, owners)

        num_tiles = len(self.tiles)
        changed = np.zeros(num_tiles, dtype=bool)
        changed[departures] = True
        changed[destinations] = True
        member = changed[source]
        order = stable_order_by_bin((2 * owner + leaving)[member],
                                    2 * num_tiles)
        tiles = [self.tiles[tile_id] for tile_id in np.flatnonzero(changed)]
        ends = np.cumsum(np.bincount(owner[member],
                                     minlength=num_tiles)[changed])
        split_to_tiles(tiles, ends, {
            name: concat_tiles(tiles, name)[order]
            for name in (*_SOA_FIELDS, "ids")})
        for tile in tiles:
            tile.sorter = None
        return int(departures.shape[0])

    # ------------------------------------------------------------------
    def gather_soa(self) -> Dict[str, np.ndarray]:
        """Concatenate the SoA arrays of all tiles (diagnostics helper)."""
        parts = [tile.soa() for tile in self.tiles if tile.num_particles > 0]
        if not parts:
            return {name: np.empty((0,))
                    for name in (*_SOA_FIELDS, "ids")}
        return {
            name: np.concatenate([p[name] for p in parts])
            for name in (*_SOA_FIELDS, "ids")
        }

    def kinetic_energy(self, executor: Optional[TileExecutor] = None
                       ) -> float:
        """Total relativistic kinetic energy of the species [J].

        With an ``executor`` the per-tile sums run one shard per task and
        the partial sums reduce in shard order (deterministic for a given
        shard count, though the reduction tree — and hence the last ulp —
        differs from the executor-less sequential sum).  Every backend
        computes the same per-shard partial sums, so the result is bitwise
        identical across backends at a fixed shard count.
        """
        return sum(map_shards(executor, _kinetic_shard,
                              self.nonempty_tiles(), self.mass), 0.0)
