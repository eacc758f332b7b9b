"""Shared infrastructure for the current-deposition kernels.

Every kernel (baseline, rhocell variants, MPU hybrid) consumes the same
per-tile staging data produced by :func:`prepare_tile_data` and implements
the :class:`DepositionKernel` interface: deposit the tile's current into
the grid arrays and record the work it performed in a
:class:`~repro.hardware.counters.KernelCounters` object.

All kernels are *numerically equivalent*: for the same particle state they
must add exactly the same current to the grid.  The integration tests
enforce this against the scatter-add reference kernel.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import SHAPE_ORDER_CIC, SHAPE_ORDER_QSP, SHAPE_ORDER_TSC
from repro.exec import TileExecutor, run_shards, shard_items
from repro.hardware.counters import KernelCounters
from repro.pic.grid import (
    Grid,
    apply_grid_geometry,
    grid_geometry,
    scratch_grids,
)
from repro.pic.particles import ParticleTile
from repro.pic.pusher import velocities
from repro.pic.shapes import shape_factors, shape_support
from repro.pic.stencil import (
    StencilOperator,
    apply_box,
    box_geometry,
    box_segments,
)

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


class TileDepositionData:
    """Per-particle staging data for one tile (Stage 1 of Algorithm 2).

    The shape-factor and effective-current arrays are computed eagerly by
    :func:`prepare_tile_data`; the cell ids (used only by the instrumented
    kernels for locality metrics and the rhocell/MPU layouts) and the
    flat-index node stencil (used only by the direct scatter) are derived
    lazily from the staged coordinates, so each consumer pays exactly for
    what it touches.
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
        #: (grid, tile, xi, yi, zi) for the lazy cell-id derivation
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
        self._local_cell_ids = tile.local_ids_from_cells(ix, iy, iz)

    @property
    def cell_ids(self) -> np.ndarray:
        """Linear cell id of each particle within the *global* grid."""
        if self._cell_ids is None:
            self._derive_cell_ids()
        return self._cell_ids

    @property
    def local_cell_ids(self) -> np.ndarray:
        """Linear cell id within the tile box."""
        if self._local_cell_ids is None:
            self._derive_cell_ids()
        return self._local_cell_ids

    def node_stencil(self, grid: Grid) -> StencilOperator:
        """The tile's flattened grid-node stencil, built once and cached.

        The stencil depends only on the grid *geometry* (shape and
        boundary kind) and its kernel tier, which are identical for the
        scratch grids the executor tasks deposit into, so the cache is
        safe across the grid instances a tile meets within one staging.
        """
        if self._stencil is None:
            self._stencil = StencilOperator.from_shape_data(
                grid.shape, grid.periodic,
                self.base_x, self.base_y, self.base_z,
                self.wx, self.wy, self.wz, grid.kernels,
            )
        return self._stencil


def prepare_tile_data(grid: Grid, tile: ParticleTile, charge: float,
                      order: int) -> TileDepositionData:
    """Compute shape factors and effective currents for a tile's particles.

    The returned arrays follow the *storage order* of the tile, so a kernel
    observing them sees exactly the locality (or lack of it) that the
    sorting machinery established.
    """
    n = tile.num_particles
    if n == 0:
        empty = np.empty((0,))
        empty_i = np.empty((0,), dtype=np.int64)
        zero_w = np.empty((0, shape_support(order)))
        data = TileDepositionData(
            order=order,
            base_x=empty_i, base_y=empty_i, base_z=empty_i,
            wx=zero_w, wy=zero_w, wz=zero_w,
            wqx=empty, wqy=empty, wqz=empty,
        )
        data._cell_ids = empty_i
        data._local_cell_ids = empty_i
        return data

    xi, yi, zi = grid.normalized_position(tile.x, tile.y, tile.z)
    base_x, wx = shape_factors(xi, order)
    base_y, wy = shape_factors(yi, order)
    base_z, wz = shape_factors(zi, order)

    vx, vy, vz = velocities(tile.ux, tile.uy, tile.uz)
    cell_volume = float(np.prod(grid.cell_size))
    scale = charge / cell_volume
    weight_scale = scale * tile.w
    wqx = weight_scale * vx
    wqy = weight_scale * vy
    wqz = weight_scale * vz

    return TileDepositionData(
        order=order,
        base_x=base_x, base_y=base_y, base_z=base_z,
        wx=wx, wy=wy, wz=wz,
        wqx=wqx, wqy=wqy, wqz=wqz,
        cell_source=(grid, tile, xi, yi, zi),
    )


def scatter_tile_currents(grid: Grid, data: TileDepositionData) -> None:
    """Numerically exact scatter-add of a tile's staged currents to the grid.

    Used by kernels whose instrumentation differs but whose arithmetic is
    the straightforward per-node accumulation (baseline and rhocell paths
    both reduce to this formula).  Tile-shard executor tasks point ``grid``
    at a shard-private scratch :class:`Grid`, so the accumulation target is
    always ``grid.current_arrays()``.

    The three components share one flattened stencil (node ids and 3-D
    weights computed once per tile) and accumulate with a single
    scatter-add pass each — see :mod:`repro.pic.stencil`.  When the
    grid's kernel tier provides a fused three-component ``scatter3``
    (the numba tier), the whole staged tile deposits in one compiled
    pass into bounding-box accumulators; the boxes are applied to the
    grid through the same wrapped/clamped segment logic as the stencil
    path, so both routes are bitwise identical.
    """
    if data.num_particles == 0:
        return
    jx, jy, jz = grid.current_arrays()
    kern = grid.kernels
    if kern.scatter3 is not None:
        geometry = box_geometry(grid.shape, data.base_x, data.base_y,
                                data.base_z, data.support)
        if geometry is not None:
            lo, dims = geometry
            box_x, box_y, box_z = kern.scatter3(
                data.base_x, data.base_y, data.base_z,
                data.wx, data.wy, data.wz,
                data.wqx, data.wqy, data.wqz, lo, dims)
            segments = box_segments(lo, dims, grid.shape,
                                    tuple(bool(p) for p in grid.periodic))
            apply_box(box_x, segments, jx)
            apply_box(box_y, segments, jy)
            apply_box(box_z, segments, jz)
            return
    stencil = data.node_stencil(grid)
    stencil.scatter(data.wqx, jx)
    stencil.scatter(data.wqy, jy)
    stencil.scatter(data.wqz, jz)


def _scratch_shard(shard: Tuple, body, args: Tuple, geometry: Tuple,
                   arrays: Tuple[str, ...]) -> Tuple:
    """Executor task: run ``body`` over one shard into private scratch.

    ``shard`` is ``(tiles, scratch)``.  The caller leases ``scratch`` and
    releases it after the merge (the return value aliases its arrays, so
    the task itself must not release).  The scratch always takes the
    caller grid's *live* ``(lo, hi)`` and its kernel table: the moving
    window advances the corners past the static ``GridConfig`` values,
    and staging positions against a stale origin would normalise the
    particles into the wrong cells.
    """
    tiles, scratch = shard
    apply_grid_geometry(scratch, geometry)
    value = body(scratch, tiles, *args)
    return tuple(getattr(scratch, name) for name in arrays), value


def scratch_reduce(executor: Optional[TileExecutor], grid: Grid,
                   tiles: Sequence[ParticleTile], body, *args,
                   arrays: Tuple[str, ...] = ("jx", "jy", "jz")) -> List:
    """Accumulate ``body(target, tiles, *args)`` over shards into ``grid``.

    The reduce half of the :mod:`repro.exec.base` contract.  At one shard
    ``body`` writes straight into the (possibly non-zero) ``grid``;
    otherwise every shard gets a zeroed scratch grid with the live
    geometry as ``target``, and the scratch ``arrays`` are added to the
    grid in shard order.  Returns the body's return values in shard order.
    """
    shards = shard_items(executor, tiles)
    if len(shards) == 1:
        return [body(grid, tiles, *args)]
    scratches = [scratch_grids.acquire(grid.config) for _ in shards]
    try:
        results = run_shards(executor, _scratch_shard,
                             list(zip(shards, scratches)), body, args,
                             grid_geometry(grid), arrays)
        for shard_arrays, _ in results:
            for name, scratch_array in zip(arrays, shard_arrays):
                merged = getattr(grid, name)
                merged += scratch_array
        return [value for _, value in results]
    finally:
        for scratch in scratches:
            scratch_grids.release(scratch)


class DepositionKernel(abc.ABC):
    """Interface of an instrumented current-deposition kernel."""

    #: human-readable configuration name used in tables and figures
    name: str = "abstract"

    @abc.abstractmethod
    def deposit_tile(self, grid: Grid, tile: ParticleTile, charge: float,
                     order: int, counters: KernelCounters,
                     ordering: Optional[np.ndarray] = None) -> None:
        """Deposit one tile's current into the grid, recording counters.

        ``ordering`` is the processing order of the tile's particles (the
        GPMA iteration order when an incremental sorter is active).  When
        omitted, the storage order is used.  The numerics are independent of
        the order; only the modelled locality and gather costs change.
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
