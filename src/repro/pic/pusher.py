"""Relativistic Boris particle pusher.

The paper's evaluation uses the Boris pusher (§5.2).  Momenta are stored as
``u = gamma * v`` so the update is the standard half-acceleration /
rotation / half-acceleration scheme followed by the position advance.

Gather and push run once per *run of tiles*: a shard's consecutive tiles
are grouped until a run holds :data:`RUN_PARTICLES` particles, the run's
positions and momenta are concatenated once, and one block gather
(:func:`repro.pic.gather.gather_fields`), one Boris update, one velocity
and one position update serve the whole run; each tile then holds slices
of the run's result arrays.  Each of those steps is a per-particle
function — a particle's gathered fields do not depend on its batch-mates
— so every grouping gives the same bits as pushing tile by tile.

Why a threshold: the interpreter pays a fixed cost per NumPy call, which
dominates small tiles (eight 512-particle tiles gathered at once take
about half the time of eight separate gathers), while the block
gather's field box and temporaries grow with the batch, which dominates
big tiles (two 65 536-particle tiles gathered at once are slower than
one by one).  So a tile already holding ``RUN_PARTICLES`` is its own run
and is not copied.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro import constants
from repro.exec import TileExecutor, map_shards
from repro.pic.gather import gather_fields
from repro.pic.grid import Grid
from repro.pic.particles import (
    ParticleContainer,
    ParticleTile,
    concat_tiles,
    split_to_tiles,
)

#: Particles a run of consecutive tiles gathers and pushes as one batch.
#: Any grouping gives the same bits, so this is a speed constant (4096
#: measured well on 512-particle tiles), not an option.
RUN_PARTICLES = 4096

#: the SoA arrays the push reads and replaces
_PUSHED = ("x", "y", "z", "ux", "uy", "uz")


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


def tile_runs(tiles: List[ParticleTile]) -> Iterator[List[ParticleTile]]:
    """Consecutive ``tiles`` grouped into runs of ``RUN_PARTICLES`` or more.

    Only the last run may hold fewer; a tile holding ``RUN_PARTICLES``
    or more is a run of its own.
    """
    run: List[ParticleTile] = []
    held = 0
    for tile in tiles:
        if run and tile.num_particles >= RUN_PARTICLES:
            yield run
            run, held = [], 0
        run.append(tile)
        held += tile.num_particles
        if held >= RUN_PARTICLES:
            yield run
            run, held = [], 0
    if run:
        yield run


def _push_shard_inplace(tiles: List[ParticleTile], grid: Grid, charge: float,
                        mass: float, dt: float, order: int) -> None:
    """Executor task: gather + push one shard of tiles, run by run.

    Tiles are independent (the gather reads the shared field arrays, the
    push writes only the shard's own tiles), so shards run concurrently
    without synchronisation.
    """
    for run in tile_runs(tiles):
        x, y, z, ux, uy, uz = (concat_tiles(run, name) for name in _PUSHED)
        ex, ey, ez, bx, by, bz = gather_fields(grid, x, y, z, order)
        ux, uy, uz = boris_push_momentum(ux, uy, uz, ex, ey, ez, bx, by, bz,
                                         charge, mass, dt)
        vx, vy, vz = velocities(ux, uy, uz)
        split_to_tiles(
            run, list(accumulate(tile.num_particles for tile in run)),
            dict(zip(_PUSHED, (x + vx * dt, y + vy * dt, z + vz * dt,
                               ux, uy, uz))))


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
