"""The per-tile particle stages, kept as the test oracle.

This is what ``repro.pic.pusher`` and ``repro.pic.particles`` shipped
before gather + push, the boundary wrap and the migration became batched:
every tile gathered and pushed on its own (``push_tile``), wrapped and
absorbed on its own (``apply_tile_boundary``), and a migration removed
the leavers from each source tile and appended them to each destination
tile, one NumPy call sequence per tile.  The bodies are verbatim up to
dropping the executor (the per-tile results never depended on it).  They
are slow and obviously right; ``tests/test_particle_batches.py`` holds the
batched stages to their results bit for bit: every tile's SoA arrays and
storage order, the absorbed and moved counts, the ``move_recorder`` call
sequence, which tiles keep their ``sorter`` and the cell ids handed to
the sorter (``sorted_cells``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.counting_sort import counting_sort_permutation
from repro.pic.gather import gather_fields_for_tile
from repro.pic.grid import Grid
from repro.pic.particles import ParticleContainer, ParticleTile
from repro.pic.pusher import boris_push_momentum, velocities


def push_tile(tile: ParticleTile, fields: Tuple[np.ndarray, ...],
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


def oracle_push(container: ParticleContainer, grid: Grid, dt: float,
                order: int) -> None:
    """``BorisPusher.push`` tile by tile."""
    for tile in container.nonempty_tiles():
        fields = gather_fields_for_tile(grid, tile, order)
        push_tile(tile, fields, container.charge, container.mass, dt)


def apply_tile_boundary(tile: ParticleTile, lo: np.ndarray, hi: np.ndarray,
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


def oracle_apply_boundary_conditions(container: ParticleContainer,
                                     grid: Grid) -> int:
    """``ParticleContainer.apply_boundary_conditions`` tile by tile."""
    lo, hi = grid.lo, grid.hi
    periodic = tuple(
        bc == "periodic" for bc in container.grid_config.particle_boundary)
    return sum(apply_tile_boundary(tile, lo, hi, hi - lo, periodic)
               for tile in container.nonempty_tiles())


def oracle_redistribute(container: ParticleContainer, grid: Grid,
                        move_recorder=None) -> int:
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
        if move_recorder is not None:
            move_recorder(tile_id, owners)
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
            order, _ = counting_sort_permutation(cells, tile.num_cells)
            tile.permute(order)
            tile.sorted_cells = cells[order]
    return moved_total
