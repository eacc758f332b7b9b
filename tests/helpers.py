"""Shared test helpers.

These live in a plain module (not ``conftest.py``) so test modules can
import them directly: ``conftest`` is special to pytest and importing it
with a relative import fails because the ``tests`` directory is not a
package.  Pytest's default ``prepend`` import mode puts this directory on
``sys.path``, so ``from helpers import make_plasma`` works everywhere in
the suite.

Helpers that only tests call live here rather than in ``src/``:
``tests/test_one_mechanism.py`` fails on a public ``src/`` definition
that nothing under ``src/`` or ``bench/`` uses.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import strategies as st

from repro import constants
from repro.api import Session
from repro.baselines.configs import available_configurations
from repro.config import GridConfig, SpeciesConfig
from repro.core.framework import SORT_NONE, MatrixPICDeposition
from repro.hardware.counters import PhaseCounters
from repro.pic.gather import gather_fields
from repro.pic.grid import Grid
from repro.pic.maxwell import FDTDSolver
from repro.pic.particles import ParticleContainer
from repro.pic.plasma import load_uniform_plasma
from repro.pic.stencil import box_node_ids


#: the configurations that wrap a kernel and a sorting mode in the
#: Matrix-PIC framework: every one but the reference deposit, which has
#: no kernel object, counters or sorter to compare
MATRIX_PIC_CONFIGS = [name for name in available_configurations()
                      if name != "Reference"]

#: thermal speed of the hot-plasma tests: every step moves particles
#: between cells (and tiles), where the workloads' 0.01c barely does
HOT_THERMAL_VELOCITY = 0.3 * constants.C_LIGHT


def hot_plasma_session(workload, deposition=None,
                       thermal_velocity=HOT_THERMAL_VELOCITY) -> Session:
    """A session of a uniform ``workload``'s config with its species at
    ``thermal_velocity`` (the workload's own spread is a module constant,
    not a knob)."""
    config = workload.build_config()
    species = tuple(dataclasses.replace(each,
                                        thermal_velocity=thermal_velocity)
                    for each in config.species)
    return Session(dataclasses.replace(config, species=species),
                   deposition=deposition)


def fdtd_solver(grid: Grid, scheme: str) -> FDTDSolver:
    """The field solver over ``grid``: ``"ckc"``, the one a run uses, or
    ``"yee"``, the same update with the transverse smoothing off
    (``alpha = 1``, ``beta = gamma = 0``).  Yee agrees with a dedicated
    Yee update up to the sign of zero: the zero-weight neighbours add
    ``+0.0`` where a bare difference could read ``-0.0``."""
    solver = FDTDSolver(grid)
    if scheme == "yee":
        solver.alpha, solver.beta, solver.gamma = 1.0, 0.0, 0.0
    else:
        assert scheme == "ckc", scheme
    return solver


def make_plasma(grid_config: GridConfig, ppc=(2, 2, 2), seed: int = 7,
                momentum_scale: float = 3.0e6):
    """Grid + container filled with a uniform plasma carrying random momenta."""
    grid = Grid(grid_config)
    species = SpeciesConfig(ppc=ppc)
    container = ParticleContainer(grid_config, species)
    rng = np.random.default_rng(seed)
    load_uniform_plasma(grid, container, species, rng)
    for tile in container.iter_tiles():
        n = tile.num_particles
        if n:
            tile.ux[...] = rng.normal(0.0, momentum_scale, n)
            tile.uy[...] = rng.normal(0.0, momentum_scale, n)
            tile.uz[...] = rng.normal(0.0, momentum_scale, n)
    return grid, container


def tile_holding(grid, x, y, z, **momenta):
    """Tile 0 of a fresh container over ``grid``'s configuration holding
    exactly these particles, in this order, wherever they sit (what a
    tile holds until a migration re-tiles it)."""
    container = ParticleContainer(grid.config, SpeciesConfig())
    inside = grid.lo + 0.5 * np.asarray(grid.cell_size)
    n = len(x)
    container.add_particles(grid, x=np.full(n, inside[0]),
                            y=np.full(n, inside[1]),
                            z=np.full(n, inside[2]), **momenta)
    tile = container.tiles[0]
    tile.x[...], tile.y[...], tile.z[...] = x, y, z
    return tile


def cells_outside_their_tile(grid, container):
    """How many particles sit in a cell outside their own tile's box."""
    outside = 0
    for tile in container.nonempty_tiles():
        cells = grid.cell_index(tile.x, tile.y, tile.z)
        inside = np.ones(tile.num_particles, dtype=bool)
        for axis, index in enumerate(cells):
            inside &= ((index >= tile.cell_lo[axis])
                       & (index < tile.cell_hi[axis]))
        outside += int(np.count_nonzero(~inside))
    return outside


#: the six gathered field components, in ``gather_fields_for_tile`` order
FIELD_NAMES = ("ex", "ey", "ez", "bx", "by", "bz")


#: (n_cell, tile_size) on unit cells: 8 to 24 tiles, some of them cut
#: short by the domain edge (on x in one layout, on y and z in another)
TILE_LAYOUTS = (((8, 8, 8), (4, 4, 4)), ((12, 8, 8), (4, 4, 4)),
                ((10, 8, 12), (4, 4, 4)), ((8, 4, 16), (4, 4, 4)),
                ((8, 10, 6), (4, 4, 4)))


def tiled_plasma(n_cell, tile_size, periodic, populations, seed,
                 species=SpeciesConfig()):
    """Grid with random E/B + a container holding ``populations[i]``
    particles inside tile ``i``'s box, with random momenta and weights.

    Unit cells; ``periodic`` axes are periodic for fields and particles,
    the others ``pec`` / ``absorbing``."""
    config = GridConfig(
        n_cell=n_cell, hi=tuple(float(n) for n in n_cell),
        tile_size=tile_size,
        particle_boundary=tuple("periodic" if p else "absorbing"
                                for p in periodic),
        field_boundary=tuple("periodic" if p else "pec" for p in periodic))
    rng = np.random.default_rng(seed)
    grid = Grid(config)
    for name in FIELD_NAMES:
        scale = 1.0e5 if name.startswith("e") else 1.0e-3
        getattr(grid, name)[...] = rng.normal(0.0, scale, grid.shape)
    container = ParticleContainer(config, species)
    pos, mom, w = [], [], []
    for tile, n in zip(container.tiles, populations):
        pos.append(rng.uniform(tile.cell_lo, tile.cell_hi, (n, 3)))
        mom.append(rng.normal(0.0, 0.5 * constants.C_LIGHT, (n, 3)))
        w.append(rng.uniform(0.5, 1.5, n))
    pos, mom = np.concatenate(pos), np.concatenate(mom)
    container.add_particles(grid, x=pos[:, 0], y=pos[:, 1], z=pos[:, 2],
                            ux=mom[:, 0], uy=mom[:, 1], uz=mom[:, 2],
                            w=np.concatenate(w))
    assert all(tile.num_particles == n
               for tile, n in zip(container.tiles, populations))
    return grid, container


@st.composite
def tiled_scenarios(draw):
    """``tiled_plasma`` arguments: a layout of ``TILE_LAYOUTS``, 0-600
    particles per tile (empty tiles included), any periodic/open mix."""
    n_cell, tile_size = draw(st.sampled_from(TILE_LAYOUTS))
    num_tiles = int(np.prod([-(-n // t) for n, t in zip(n_cell, tile_size)]))
    populations = draw(st.lists(
        st.one_of(st.just(0), st.integers(1, 600)),
        min_size=num_tiles, max_size=num_tiles))
    return dict(
        n_cell=n_cell, tile_size=tile_size, populations=populations,
        periodic=draw(st.tuples(st.booleans(), st.booleans(),
                                st.booleans())),
        seed=draw(st.integers(0, 2**31)))


def random_field_grid(shape, periodic, rng):
    """A grid of unit cells (a position is its normalised coordinate)
    with random E and B; open axes are ``pec``."""
    grid = Grid(GridConfig(
        n_cell=shape, hi=tuple(float(s) for s in shape),
        field_boundary=tuple("periodic" if p else "pec" for p in periodic)))
    for name in FIELD_NAMES:
        getattr(grid, name)[...] = rng.normal(0.0, 1.0, shape)
    return grid


def deposit_unsorted(kernel, grid, container, order, executor=None):
    """One instrumented kernel over the container in storage order — the
    ``Baseline`` configuration's tile loop with any kernel plugged in;
    returns the merged :class:`~repro.hardware.counters.KernelCounters`."""
    return MatrixPICDeposition(kernel, SORT_NONE).run_step(
        grid, container, order, 0, executor=executor)


def log_events(handle, name):
    """Fields of every ``log_event(name, ...)`` a tracing telemetry
    ``handle`` recorded (``repro.obs`` stores them as ``log.<name>``)."""
    return [event["args"] for event in handle.events
            if event["name"] == f"log.{name}"]


def current_residual(grid_a: Grid, grid_b: Grid) -> float:
    """Maximum absolute difference between the currents of two grids."""
    return float(
        max(
            np.max(np.abs(grid_a.jx - grid_b.jx), initial=0.0),
            np.max(np.abs(grid_a.jy - grid_b.jy), initial=0.0),
            np.max(np.abs(grid_a.jz - grid_b.jz), initial=0.0),
        )
    )


def total_deposited_charge(grid: Grid) -> float:
    """Volume integral of the node-centred charge density."""
    return float(grid.rho.sum() * np.prod(grid.cell_size))


def gather_field(grid: Grid, field, x, y, z, order: int):
    """Interpolate one of the grid's six field components (``field`` is
    ``grid.ex`` ... ``grid.bz`` itself) to the given particle positions:
    its column of ``gather_fields``."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return np.zeros(x.shape)
    index = [getattr(grid, name) is field for name in FIELD_NAMES].index(True)
    return gather_fields(grid, x, y, z, order)[index]


def grid_node_ids(op):
    """The grid node every stencil point of a ``StencilOperator``
    addresses, per particle: its box ids through the box's
    wrapped/clamped node map."""
    return box_node_ids(op.box_lo, op.box_dims, op.shape,
                        op.periodic)[op.flat_ids]


def gather_soa(container: ParticleContainer):
    """A copy of the container's store: the SoA arrays (positions,
    momenta, weight, ids) of all of its tiles, in tile order."""
    return {name: array.copy()
            for name, array in container.soa_arrays().items()}


def total_events(counters: PhaseCounters) -> float:
    """Sum of a phase's instruction-like counters (bytes and FLOPs
    excluded)."""
    skip = {"bytes_near", "bytes_far", "effective_flops"}
    return sum(v for k, v in counters.as_dict().items() if k not in skip)
