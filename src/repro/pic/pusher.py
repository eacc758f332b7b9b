"""Relativistic Boris particle pusher.

The paper's evaluation uses the Boris pusher (§5.2).  Momenta are stored as
``u = gamma * v`` so the update is the standard half-acceleration /
rotation / half-acceleration scheme followed by the position advance.

Gather and push run once per *batch* of about ``BATCH_PARTICLES``
particles, the one batch size: a run of tiles
(:func:`repro.pic.particles.tile_runs`, the runs the reference deposit
uses too), or a piece of a tile that is a run of its own and holds
more than ``BATCH_PARTICLES`` particles
(:func:`repro.pic.particles.piece_bounds`).  One block gather
(:func:`repro.pic.gather.gather_fields`), one Boris update, one velocity
and one position update serve a batch.  A batch is a slice of its
container's particle store (:func:`repro.pic.particles.stored`), read
without copying, and its results are written back into that slice in
place: every step is a per-particle function of the batch's own
particles, so nothing a later batch reads is overwritten.  Small tiles
are batched because the interpreter pays a fixed cost per NumPy call;
a dense tile is cut because its whole-tile panels and products (8-13 MB
each for a 65 536-particle QSP tile) stream from memory where a piece's
stay in cache.  Each of those steps is a per-particle function — a
particle's gathered fields do not depend on its batch-mates — so every
grouping and cut gives the same bits as pushing tile by tile.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro import constants
from repro.exec import TileExecutor, map_shards
from repro.pic.gather import gather_fields
from repro.pic.grid import Grid
from repro.pic.particles import (
    ParticleContainer,
    ParticleTile,
    piece_bounds,
    stored,
    tile_runs,
)


def lorentz_factor(ux: np.ndarray, uy: np.ndarray, uz: np.ndarray) -> np.ndarray:
    """Relativistic gamma for momenta expressed as ``u = gamma v`` [m/s]."""
    c2 = constants.C_LIGHT**2
    return np.sqrt(1.0 + (ux**2 + uy**2 + uz**2) / c2)


def velocities(ux: np.ndarray, uy: np.ndarray, uz: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Particle velocities ``v = u / gamma`` from the stored momenta."""
    gamma = lorentz_factor(ux, uy, uz)
    return ux / gamma, uy / gamma, uz / gamma


def boris_push_momentum(ux: np.ndarray, uy: np.ndarray, uz: np.ndarray,
                        ex: np.ndarray, ey: np.ndarray, ez: np.ndarray,
                        bx: np.ndarray, by: np.ndarray, bz: np.ndarray,
                        charge: float, mass: float, dt: float
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Boris momentum update for arrays of particles.

    All field arrays are the fields interpolated at the particle positions.
    Returns the updated ``(ux, uy, uz)`` arrays (new allocations).
    """
    qmdt2 = charge * dt / (2.0 * mass)

    # half electric acceleration
    ax = qmdt2 * ex
    ay = qmdt2 * ey
    az = qmdt2 * ez
    uxm = ux + ax
    uym = uy + ay
    uzm = uz + az

    # magnetic rotation
    gamma = lorentz_factor(uxm, uym, uzm)
    tx = qmdt2 * bx / gamma
    ty = qmdt2 * by / gamma
    tz = qmdt2 * bz / gamma
    norm = 1.0 + (tx**2 + ty**2 + tz**2)
    sx = 2.0 * tx / norm
    sy = 2.0 * ty / norm
    sz = 2.0 * tz / norm

    upx = uxm + (uym * tz - uzm * ty)
    upy = uym + (uzm * tx - uxm * tz)
    upz = uzm + (uxm * ty - uym * tx)

    uxp = uxm + (upy * sz - upz * sy)
    uyp = uym + (upz * sx - upx * sz)
    uzp = uzm + (upx * sy - upy * sx)

    # second half electric acceleration
    return uxp + ax, uyp + ay, uzp + az


def _push_batch(grid: Grid, batch: np.ndarray, charge: float, mass: float,
                dt: float, order: int) -> None:
    """Gather + push one batch in place: ``batch`` is the ``x`` ... ``uz``
    rows of a slice of the store."""
    x, y, z, ux, uy, uz = batch
    ex, ey, ez, bx, by, bz = gather_fields(grid, x, y, z, order)
    for row, values in zip((ux, uy, uz), boris_push_momentum(
            ux, uy, uz, ex, ey, ez, bx, by, bz, charge, mass, dt)):
        row[...] = values
    vx, vy, vz = velocities(ux, uy, uz)
    x += vx * dt
    y += vy * dt
    z += vz * dt


def _push_shard_inplace(tiles: List[ParticleTile], grid: Grid, charge: float,
                        mass: float, dt: float, order: int) -> None:
    """Executor task: gather + push one shard of tiles, batch by batch.

    Each batch writes its own slice of the store.  Tiles are independent
    (the gather reads the shared field arrays, the push writes only the
    shard's own slice), so shards run concurrently without
    synchronisation.
    """
    for run in tile_runs(tiles):
        block = stored(run)
        total = block.shape[1]
        bounds = piece_bounds(total) if len(run) == 1 else (0, total)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            _push_batch(grid, block[:6, lo:hi], charge, mass, dt, order)
        for tile in run:
            tile.drop_handoff()


class BorisPusher:
    """Pushes every tile of a particle container using gathered fields."""

    def __init__(self, shape_order: int = 1):
        self.shape_order = shape_order

    def push(self, container: ParticleContainer, grid: Grid, dt: float,
             executor: Optional[TileExecutor] = None) -> None:
        """Gather fields and advance every particle of the container.

        The per-tile push is bitwise independent of the shard partition
        (no cross-tile accumulation), so every backend produces identical
        particle state.
        """
        map_shards(executor, _push_shard_inplace, container.nonempty_tiles(),
                   grid, container.charge, container.mass, dt,
                   self.shape_order)


class GatherPushStage:
    """Pipeline stage: field gather + Boris push for every species.

    Gathers from the frame grid, sharding the per-tile work over the
    session's executor exactly like the pre-pipeline loop (see
    :class:`repro.pipeline.StepPipeline`).
    """

    name = "gather_push"
    bucket = "field_gather_push"
    reads = frozenset({
        "grid.fields", "grid.geometry", "containers.position",
        "containers.momentum", "containers.membership",
        "pusher", "dt", "executor",
    })
    writes = frozenset({"containers.position", "containers.momentum"})

    def run(self, session) -> None:
        for container in session.containers:
            session.pusher.push(container, session.grid, session.dt,
                                executor=session.executor)
