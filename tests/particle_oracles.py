"""The per-tile particle stages, kept as the test oracle.

This is what ``repro.pic.pusher`` and ``repro.pic.particles`` shipped
before gather + push, the boundary wrap and the migration became batched
and before a tile became a range of its container's store: every tile
owned eight arrays (:class:`OracleTile`), gathered and pushed on its own
(``push_tile``), wrapped and absorbed on its own
(``apply_tile_boundary``), a migration removed the leavers from each
source tile and appended them to each destination tile, and
``add_particles`` appended each tile's arrivals to it, one NumPy call
sequence per tile.  :class:`OracleContainer` copies those per-tile arrays
out of a container.  The bodies are verbatim up to dropping the executor (the
per-tile results never depended on it).  They are slow and obviously
right; ``tests/test_particle_batches.py`` holds the batched stages to
their results bit for bit: every tile's SoA arrays and storage order,
the absorbed and moved counts, which tiles keep their ``sorter`` and the
cell ids handed to the sorter (``sorted_cells``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.counting_sort import counting_sort_permutation
from repro.pic.gather import gather_fields_for_tile
from repro.pic.grid import Grid
from repro.pic.particles import ParticleContainer, ParticleTile
from repro.pic.pusher import boris_push_momentum, velocities

SOA_FIELDS = ("x", "y", "z", "ux", "uy", "uz", "w")


class OracleTile:
    """A tile that owns its SoA arrays, as tiles did before the store."""

    def __init__(self, tile: ParticleTile):
        self.tile_index = tile.tile_index
        self.cell_lo, self.cell_hi = tile.cell_lo, tile.cell_hi
        for name in (*SOA_FIELDS, "ids"):
            setattr(self, name, getattr(tile, name).copy())
        self.sorter = tile.sorter
        self.keeps_cell_order = tile.keeps_cell_order
        self.sorted_cells = tile.sorted_cells
        self.sorted_population = tile.sorted_population

    num_particles = property(lambda self: self.x.shape[0])
    tile_cells = ParticleTile.tile_cells
    num_cells = ParticleTile.num_cells
    local_cell_ids = ParticleTile.local_cell_ids
    local_ids_from_cells = ParticleTile.local_ids_from_cells
    drop_sort_state = ParticleTile.drop_sort_state
    drop_handoff = ParticleTile.drop_handoff

    def append(self, **arrays: np.ndarray) -> None:
        """Append particles given as keyword SoA arrays.

        Missing momentum/weight arrays default to zero / one.  ``ids`` may be
        omitted, in which case the caller is expected to re-id afterwards.
        """
        n = len(np.asarray(arrays["x"]))
        for name in SOA_FIELDS:
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
        self.drop_sort_state()

    def remove(self, mask: np.ndarray) -> Dict[str, np.ndarray]:
        """Remove particles where ``mask`` is True and return their SoA data."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != self.num_particles:
            raise ValueError("mask length does not match particle count")
        removed = {name: getattr(self, name)[mask] for name in SOA_FIELDS}
        removed["ids"] = self.ids[mask]
        keep = ~mask
        for name in SOA_FIELDS:
            setattr(self, name, getattr(self, name)[keep])
        self.ids = self.ids[keep]
        self.drop_sort_state()
        return removed

    def permute(self, order: np.ndarray) -> None:
        """Reorder the SoA arrays in-place following ``order``.

        Drops the sort state: it describes the old storage order.
        """
        order = np.asarray(order, dtype=np.int64)
        if order.shape[0] != self.num_particles:
            raise ValueError("permutation length does not match particle count")
        for name in SOA_FIELDS:
            setattr(self, name, getattr(self, name)[order])
        self.ids = self.ids[order]
        self.drop_sort_state()


class OracleContainer:
    """A container's tiles as :class:`OracleTile` objects, plus what the
    oracle stages read of the container."""

    def __init__(self, container: ParticleContainer):
        self.tiles = [OracleTile(tile) for tile in container.tiles]
        self.grid_config = container.grid_config
        self.charge, self.mass = container.charge, container.mass
        self.tile_of_cell = container.tile_of_cell
        self._next_id = container._next_id

    def nonempty_tiles(self) -> List[OracleTile]:
        return [tile for tile in self.tiles if tile.num_particles > 0]

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


def push_tile(tile: OracleTile, fields: Tuple[np.ndarray, ...],
              charge: float, mass: float, dt: float) -> None:
    """Push the particles of one tile in place (momentum then position)."""
    ex, ey, ez, bx, by, bz = fields
    tile.ux, tile.uy, tile.uz = boris_push_momentum(
        tile.ux, tile.uy, tile.uz, ex, ey, ez, bx, by, bz, charge, mass, dt
    )
    vx, vy, vz = velocities(tile.ux, tile.uy, tile.uz)
    tile.x = tile.x + vx * dt
    tile.y = tile.y + vy * dt
    tile.z = tile.z + vz * dt


def oracle_push(container: OracleContainer, grid: Grid, dt: float,
                order: int) -> None:
    """``BorisPusher.push`` tile by tile."""
    for tile in container.nonempty_tiles():
        fields = gather_fields_for_tile(grid, tile, order)
        push_tile(tile, fields, container.charge, container.mass, dt)


def apply_tile_boundary(tile: OracleTile, lo: np.ndarray, hi: np.ndarray,
                        extent: np.ndarray, periodic: Sequence[bool]) -> int:
    """Wrap/absorb one tile's particles in place; returns removed count."""
    coords = [tile.x, tile.y, tile.z]
    absorb_mask = np.zeros((tile.num_particles,), dtype=bool)
    for axis, arr in enumerate(coords):
        if periodic[axis]:
            arr[...] = lo[axis] + np.mod(arr - lo[axis], extent[axis])
        else:
            absorb_mask |= (arr < lo[axis]) | (arr >= hi[axis])
    if absorb_mask.any():
        removed = tile.remove(absorb_mask)
        return int(removed["ids"].shape[0])
    return 0


def oracle_apply_boundary_conditions(container: OracleContainer,
                                     grid: Grid) -> int:
    """``ParticleContainer.apply_boundary_conditions`` tile by tile."""
    lo, hi = grid.lo, grid.hi
    periodic = tuple(
        bc == "periodic" for bc in container.grid_config.particle_boundary)
    return sum(apply_tile_boundary(tile, lo, hi, hi - lo, periodic)
               for tile in container.nonempty_tiles())


def oracle_redistribute(container: OracleContainer, grid: Grid) -> int:
    """``ParticleContainer.redistribute`` as a per-tile scan followed by
    ``remove`` from every source and ``append`` to every destination.

    A changed tile that keeps cell order is then permuted by a stable
    counting sort of its cells, and those sorted cell ids are its
    ``sorted_cells``; every other tile keeps its stayers followed by its
    arrivals."""
    scans: List[Tuple[int, np.ndarray, np.ndarray]] = []
    for tile_id, tile in enumerate(container.tiles):
        if tile.num_particles == 0:
            continue
        ix, iy, iz = grid.cell_index(tile.x, tile.y, tile.z)
        owner = container.tile_of_cell(ix, iy, iz)
        leaving = owner != tile_id
        if leaving.any():
            scans.append((tile_id, leaving, owner[leaving]))

    moved_total = 0
    pending: Dict[int, List[Dict[str, np.ndarray]]] = {}
    for tile_id, leaving, owners in scans:
        removed = container.tiles[tile_id].remove(leaving)
        for dest in np.unique(owners):
            sel = owners == dest
            pending.setdefault(int(dest), []).append(
                {k: v[sel] for k, v in removed.items()}
            )
        moved_total += int(leaving.sum())
    for dest, chunks in pending.items():
        merged = {
            k: np.concatenate([c[k] for c in chunks]) for k in chunks[0]
        }
        container.tiles[dest].append(**merged)

    changed = {tile_id for tile_id, _, _ in scans} | set(pending)
    for tile_id in sorted(changed):
        tile = container.tiles[tile_id]
        if tile.keeps_cell_order:
            cells = tile.local_cell_ids(grid)
            order, population = counting_sort_permutation(cells,
                                                          tile.num_cells)
            tile.permute(order)
            tile.sorted_cells = cells[order]
            tile.sorted_population = population
    return moved_total
