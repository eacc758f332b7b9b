"""Shared infrastructure for the current-deposition kernels.

Every kernel (baseline, rhocell variants, MPU hybrid) consumes the same
per-tile staging data produced by :func:`prepare_tile_data` (the
reference deposit stages whole runs of tiles through the same body,
:func:`prepare_run_data`, and the MatrixPIC kernel a dense tile's
pieces) and implements
the :class:`DepositionKernel` interface: deposit the tile's current into
the grid arrays and record the work it performed in a
:class:`~repro.hardware.counters.KernelCounters` object.

All kernels are *numerically equivalent*: for the same particle state they
add the reference deposit's current to the grid up to rounding.  The
baseline kernel applies the reference's formula
(:func:`scatter_tile_currents`) tile by tile, so it adds the same bits
wherever a run of tiles the reference stages is one tile; the rhocell and
MPU kernels sum each cell's contributions before the reduction and differ
at rounding level (up to about 2e-15 of peak ``|J|`` on a 16^3-cell,
8-PPC plasma).  The integration tests hold every kernel to 1e-12 of
peak ``|J|`` against the reference.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import (
    SHAPE_ORDER_CIC,
    SHAPE_ORDER_QSP,
    SHAPE_ORDER_TSC,
    SUPPORTED_SHAPE_ORDERS,
    GridConfig,
)
from repro.exec import TileExecutor, run_shards, shard_items
from repro.hardware.counters import KernelCounters
from repro.pic.grid import Grid, apply_grid_geometry, grid_geometry
from repro.pic.particles import ParticleTile, stored
from repro.pic.pusher import velocities
from repro.pic.shapes import shape_factors, shape_support
from repro.pic.stencil import StencilOperator

#: the particles a staging takes (:func:`prepare_run_data`): a slice of
#: the storage order or storage indices
Selection = Union[slice, np.ndarray]

#: Effective FP64 operations per particle of the canonical scalar deposition
#: algorithm, used as the numerator of the Table 3 peak-efficiency metric.
#: The third-order value (419) is the figure quoted in §5.2.2 of the paper;
#: the lower orders are the analogous counts for their smaller stencils.
_EFFECTIVE_FLOPS = {
    SHAPE_ORDER_CIC: 101.0,
    SHAPE_ORDER_TSC: 218.0,
    SHAPE_ORDER_QSP: 419.0,
}


def effective_deposition_flops(order: int) -> float:
    """Useful FP64 work per particle for the given shape order."""
    try:
        return _EFFECTIVE_FLOPS[order]
    except KeyError:
        raise ValueError(f"unsupported shape order {order}") from None


def cell_switch_fraction(cell_ids: np.ndarray) -> float:
    """Fraction of consecutive particles that change cell.

    This is the data-locality metric used by the cost model: a perfectly
    cell-sorted tile has a switch fraction close to ``n_cells / n_particles``
    while an unsorted tile approaches 1.  Kernels charge their grid/rhocell
    traffic to the far-memory path in proportion to this fraction, which is
    how sorting translates into modelled speedup.
    """
    cell_ids = np.asarray(cell_ids)
    if cell_ids.size <= 1:
        return 0.0
    switches = np.count_nonzero(cell_ids[1:] != cell_ids[:-1])
    return float(switches) / float(cell_ids.size - 1)


def run_switch_fraction(runs: float, n: int) -> float:
    """:func:`cell_switch_fraction` of ``n`` cells known to form ``runs``
    maximal runs of equal cells — every switch starts a run — without
    scanning the sequence again."""
    if n <= 1:
        return 0.0
    return (runs - 1.0) / float(n - 1)


class TileDepositionData:
    """Per-particle staging data for one tile or one run of tiles (Stage 1
    of Algorithm 2).

    The shape-factor and effective-current arrays are computed eagerly by
    :func:`prepare_run_data`; the cell ids (used only by the instrumented
    kernels for locality metrics and the rhocell/MPU layouts) and the
    flat-index node stencil (used only by the direct scatter) are derived
    lazily from the staged coordinates, so each consumer pays exactly for
    what it touches.  Tile-local cell ids need a tile box, so the staging
    of a run of several tiles refuses them.
    """

    __slots__ = ("order", "base_x", "base_y", "base_z", "wx", "wy", "wz",
                 "wqx", "wqy", "wqz", "_cell_source", "_cell_ids",
                 "_local_cell_ids", "_stencil")

    def __init__(self, order: int,
                 base_x: np.ndarray, base_y: np.ndarray, base_z: np.ndarray,
                 wx: np.ndarray, wy: np.ndarray, wz: np.ndarray,
                 wqx: np.ndarray, wqy: np.ndarray, wqz: np.ndarray,
                 cell_source: Optional[Tuple] = None):
        #: shape order the data was prepared for
        self.order = order
        #: first grid node receiving weight, per axis, shape (n,)
        self.base_x = base_x
        self.base_y = base_y
        self.base_z = base_z
        #: 1-D shape-factor weights per axis, shape (n, order + 1)
        self.wx = wx
        self.wy = wy
        self.wz = wz
        #: effective current terms q * v * w / V_cell, shape (n,)
        self.wqx = wqx
        self.wqy = wqy
        self.wqz = wqz
        #: (grid, tile, xi, yi, zi) for the lazy cell-id derivation; the
        #: tile is ``None`` for a run of several tiles (no tile box)
        self._cell_source = cell_source
        self._cell_ids: Optional[np.ndarray] = None
        self._local_cell_ids: Optional[np.ndarray] = None
        self._stencil: Optional[StencilOperator] = None

    @property
    def num_particles(self) -> int:
        """Number of particles staged for deposition."""
        return self.base_x.shape[0]

    @property
    def support(self) -> int:
        """Nodes touched along one axis."""
        return self.wx.shape[1] if self.num_particles else shape_support(self.order)

    # ------------------------------------------------------------------
    def _derive_cell_ids(self) -> None:
        """Cell ids from the already-normalised coordinates, computed once.

        The historical path re-normalised and re-wrapped the positions
        twice more (``grid.cell_index`` plus ``tile.local_cell_ids``);
        here the staged ``xi/yi/zi`` are floored and wrapped exactly once.
        """
        grid, tile, xi, yi, zi = self._cell_source
        ix = grid.wrap_node_index(np.floor(xi).astype(np.int64), axis=0)
        iy = grid.wrap_node_index(np.floor(yi).astype(np.int64), axis=1)
        iz = grid.wrap_node_index(np.floor(zi).astype(np.int64), axis=2)
        self._cell_ids = grid.linear_cell_id(ix, iy, iz)
        if tile is not None:
            self._local_cell_ids = tile.local_ids_from_cells(ix, iy, iz)

    @property
    def cell_ids(self) -> np.ndarray:
        """Linear cell id of each particle within the *global* grid."""
        if self._cell_ids is None:
            self._derive_cell_ids()
        return self._cell_ids

    @property
    def local_cell_ids(self) -> np.ndarray:
        """Linear cell id within the tile box (one-tile staging only)."""
        if self._local_cell_ids is None:
            if self._cell_source[1] is None:
                raise ValueError(
                    "a run of several tiles has no tile box: stage one "
                    "tile (prepare_tile_data) for tile-local cell ids")
            self._derive_cell_ids()
        return self._local_cell_ids

    def node_stencil(self, grid: Grid) -> StencilOperator:
        """The batch's flattened grid-node stencil, built once and cached.

        The stencil depends only on the grid *geometry* (shape and
        boundary kind), which is identical for the
        scratch grids the executor tasks deposit into, so the cache is
        safe across the grid instances a batch meets within one staging.
        """
        if self._stencil is None:
            self._stencil = StencilOperator.from_shape_data(
                grid.shape, grid.periodic,
                self.base_x, self.base_y, self.base_z,
                self.wx, self.wy, self.wz,
            )
        return self._stencil


def prepare_run_data(grid: Grid, tiles: Sequence[ParticleTile], charge: float,
                     order: int, selection: Selection = slice(None)
                     ) -> TileDepositionData:
    """Compute shape factors and effective currents for a run of tiles.

    The particles are staged once from the run's slice of the store,
    in tile order, each tile's in its *storage order*, so a kernel
    observing them sees exactly the locality (or lack of it) that the
    sorting machinery established.  ``selection`` picks the particles
    of that slice to stage, in its order: a slice (a view, no copy) or
    storage indices (one gather).  Every staged value is a function of
    its own particle, so staging a selection gives the selected rows of
    the whole staging, bit for bit.  A one-tile run keeps its tile box
    for :attr:`TileDepositionData.local_cell_ids`.
    """
    block = stored(tiles)
    x, y, z, ux, uy, uz, w = (block[:, selection]
                              if isinstance(selection, slice)
                              else np.take(block, selection, axis=1))
    xi, yi, zi = grid.normalized_position(x, y, z)
    base_x, wx = shape_factors(xi, order)
    base_y, wy = shape_factors(yi, order)
    base_z, wz = shape_factors(zi, order)

    vx, vy, vz = velocities(ux, uy, uz)
    cell_volume = float(np.prod(grid.cell_size))
    scale = charge / cell_volume
    weight_scale = scale * w
    wqx = weight_scale * vx
    wqy = weight_scale * vy
    wqz = weight_scale * vz

    return TileDepositionData(
        order=order,
        base_x=base_x, base_y=base_y, base_z=base_z,
        wx=wx, wy=wy, wz=wz,
        wqx=wqx, wqy=wqy, wqz=wqz,
        cell_source=(grid, tiles[0] if len(tiles) == 1 else None,
                     xi, yi, zi),
    )


def prepare_tile_data(grid: Grid, tile: ParticleTile, charge: float,
                      order: int,
                      local_cell_ids: Optional[np.ndarray] = None
                      ) -> TileDepositionData:
    """Staging data of one tile: :func:`prepare_run_data` of a one-tile run.

    ``local_cell_ids``, when given, are the tile-local cell ids of the
    tile's current storage order — the ids the sort state holds, taken
    with the same floor, wrap and clip — and are used as they are
    instead of being derived a second time.
    """
    data = prepare_run_data(grid, [tile], charge, order)
    if local_cell_ids is not None:
        data._local_cell_ids = checked_cell_ids(local_cell_ids,
                                                data.num_particles)
    return data


def checked_cell_ids(local_cell_ids: np.ndarray, num_particles: int
                     ) -> np.ndarray:
    """``local_cell_ids`` handed in for a tile of ``num_particles``
    particles, refused unless there is one per particle."""
    if local_cell_ids.shape != (num_particles,):
        raise ValueError(
            f"{local_cell_ids.shape[0]} local cell ids for a tile of "
            f"{num_particles} particles")
    return local_cell_ids


def scatter_tile_currents(grid: Grid, data: TileDepositionData) -> None:
    """Numerically exact scatter-add of staged currents to the grid.

    ``data`` is one tile's or one run's staging.  Used by the reference
    deposit, once per run of tiles, and by the baseline kernel, once per
    tile: the straightforward per-node accumulation (the rhocell paths sum
    per cell first, which rounds differently).
    Tile-shard executor tasks point ``grid`` at a shard-private scratch
    :class:`Grid`, so the accumulation target is always
    ``grid.current_arrays()``.

    The three components share one flattened stencil (node ids and 3-D
    weights computed once per staging) and accumulate with a single
    scatter-add pass each into the batch's bounding box — see
    :mod:`repro.pic.stencil`.
    """
    if data.num_particles == 0:
        return
    jx, jy, jz = grid.current_arrays()
    stencil = data.node_stencil(grid)
    stencil.scatter(data.wqx, jx)
    stencil.scatter(data.wqy, jy)
    stencil.scatter(data.wqz, jz)


def _scratch_shard(tiles: Sequence[ParticleTile], body, args: Tuple,
                   config: GridConfig, geometry: Tuple,
                   arrays: Tuple[str, ...]) -> Tuple:
    """Executor task: run ``body`` over one shard into a private scratch.

    The task builds its own zeroed scratch :class:`Grid` from the caller
    grid's config and :func:`~repro.pic.grid.grid_geometry` snapshot, so
    it deposits against the *live* ``(lo, hi)``: the moving window
    advances the corners past the static ``GridConfig`` values, and
    staging positions against a stale origin would normalise the
    particles into the wrong cells.  The returned arrays are the
    scratch's own; nothing else holds them.
    """
    scratch = apply_grid_geometry(Grid(config), geometry)
    value = body(scratch, tiles, *args)
    return tuple(getattr(scratch, name) for name in arrays), value


def scratch_reduce(executor: Optional[TileExecutor], grid: Grid,
                   tiles: Sequence[ParticleTile], body, *args,
                   arrays: Tuple[str, ...] = ("jx", "jy", "jz")) -> List:
    """Accumulate ``body(target, tiles, *args)`` over shards into ``grid``.

    The reduce half of the :mod:`repro.exec.base` contract.  At one shard
    ``body`` writes straight into the (possibly non-zero) ``grid``;
    otherwise every shard's task builds a zeroed scratch grid with the
    live geometry as ``target``, and the scratch ``arrays`` are added to
    the grid in shard order.  Returns the body's return values in shard
    order; a body that raises raises here.
    """
    shards = shard_items(executor, tiles)
    if len(shards) == 1:
        return [body(grid, tiles, *args)]
    results = run_shards(executor, _scratch_shard, shards, body, args,
                         grid.config, grid_geometry(grid), arrays)
    for shard_arrays, _ in results:
        for name, scratch_array in zip(arrays, shard_arrays):
            merged = getattr(grid, name)
            merged += scratch_array
    return [value for _, value in results]


class DepositionKernel(abc.ABC):
    """Interface of an instrumented current-deposition kernel."""

    #: human-readable configuration name used in tables and figures
    name: str = "abstract"
    #: the shape orders this kernel deposits, read by :meth:`check_order`
    shape_orders: Tuple[int, ...] = SUPPORTED_SHAPE_ORDERS

    @classmethod
    def check_order(cls, order: int) -> None:
        """Raise :class:`ValueError` unless this kernel deposits ``order``."""
        if order not in cls.shape_orders:
            raise ValueError(
                f"{cls.__name__} deposits shape orders "
                f"{list(cls.shape_orders)} only, got {order}")

    @abc.abstractmethod
    def deposit_tile(self, grid: Grid, tile: ParticleTile, charge: float,
                     order: int, counters: KernelCounters,
                     ordering: Optional[np.ndarray] = None,
                     local_cells: Optional[np.ndarray] = None) -> None:
        """Deposit one tile's current into the grid, recording counters.

        ``ordering`` is the processing order of the tile's particles (the
        GPMA iteration order when an incremental sorter is active).  When
        omitted, the storage order is used.  The numerics are independent of
        the order; only the modelled locality and gather costs change.
        ``local_cells`` are the tile-local cell ids of the storage order
        when the caller already holds them (the sort state's);
        a kernel that reads tile-local ids uses them instead of deriving
        its own (:func:`prepare_tile_data`).
        """

    # ------------------------------------------------------------------
    @staticmethod
    def charge_effective_work(counters: KernelCounters, num_particles: int,
                              order: int) -> None:
        """Record the canonical useful work for the efficiency metric."""
        counters.phase("compute").add(
            effective_flops=num_particles * effective_deposition_flops(order)
        )

    @staticmethod
    def soa_read_bytes(num_particles: int) -> float:
        """Bytes read to stream a particle's SoA record (7 FP64 fields)."""
        return float(num_particles) * 7.0 * 8.0

    @staticmethod
    def grid_write_bytes(num_particles: int, order: int) -> float:
        """Bytes of grid read-modify-write traffic for direct deposition."""
        nodes = shape_support(order) ** 3
        return float(num_particles) * nodes * 3.0 * 8.0 * 2.0
