"""Flat-index stencil scatter/gather engine.

Every particle-mesh kernel in this library — current deposition, charge
deposition, the rhocell cell->node reduction and the field gather —
evaluates the same tensor-product stencil: a particle at grid-normalised
position ``xi`` touches ``support`` nodes per axis with separable 1-D
weights, i.e. ``support**3`` grid nodes in total.
(The field gather does not build that stencil per particle: it is the
cell-grouped block product of :mod:`repro.pic.gather`, which borrows
this module's bounding box and wrap/clamp rule.)

Historically each consumer walked that stencil with a triple Python loop,
issuing one ``np.add.at`` (NumPy's slowest scatter primitive: an unbuffered
ufunc dispatch through a 3-tuple fancy index) per ``(i, j, k)`` offset and
per current component — ``3 * support**3`` calls per tile, 192 at QSP
order.  This module replaces that pattern with a single-pass formulation:

1. node indices are resolved **once per axis** (not once per stencil
   offset inside the loop nest).  The operator works in the coordinates
   of the batch's *bounding box* (the tile's cells plus the stencil
   ghost ring, :func:`box_geometry`): no wrapping is needed inside the
   box, the ``support**3`` stencil offsets are the same constant cached
   vector for every particle, and the full ``(n, support**3)`` id array
   is one broadcast add off the particles' base corner id,
2. the tensor-product weights are flattened to the matching
   ``(n, support**3)`` layout,
3. each component is accumulated with a single scatter-add pass over the
   flattened stencil into a box accumulator, and the box is then applied
   to the grid as a handful of slice additions: periodic axes wrap the
   box's overhanging segments around (as many periods as needed), open
   axes collapse them onto the boundary plane.

The box is *tile-sized*, not grid-sized, so the per-tile cost is
``O(n_particles * support**3 + box)`` — independent of the global grid
resolution (the historical formulation's fancy-index scatters shared this
property, which a naive whole-grid ``bincount(minlength=grid)`` would
lose on multi-tile domains).

Determinism contract
--------------------
The scatter accumulates strictly in flattened input order
(particle-major, stencil-point-minor — ``np.bincount`` order) and the
box is applied as a fixed sequence of slice additions, so the result is
a pure function of the flattened stencil — bitwise reproducible across
runs and executor backends (the shard partition fixes the input order).
The summation order *within* a node differs from the historical
``np.add.at`` loop nest (particle-major here, offset-major there), so
individual sums may differ from the old code in the last ulp; all
consumers route through this one primitive, which preserves the
cross-kernel equivalence properties by construction.  The property suite
in ``tests/test_stencil.py`` pins the engine against an ``np.add.at``
oracle.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.pic.shapes import combined_weights, shape_factors

#: Annotation alias for the dense arrays the numerical layers exchange.
Array = np.ndarray

__all__ = [
    "Array",
    "wrap_axis_indices",
    "scatter_flat",
    "cell_block_ids",
    "box_geometry",
    "box_node_ids",
    "box_segments",
    "apply_box",
    "StencilOperator",
]


def wrap_axis_indices(idx: Array, n: int, periodic: bool) -> Array:
    """Wrap (periodic) or clamp (open boundary) node indices on one axis.

    Always a new array.  The periodic wrap is ``np.mod`` of the indices
    outside ``[0, n)`` only: it is the identity on that range, and a range
    check costs far less than an integer modulo of every index.
    """
    if not periodic:
        return np.clip(idx, 0, n - 1)
    wrapped = np.array(idx, copy=True)
    outside = (wrapped < 0) | (wrapped >= n)
    if outside.any():
        wrapped[outside] = np.mod(wrapped[outside], n)
    return wrapped


def _scatter(flat_ids: Array, weights: Array, amplitude: Optional[Array],
             size: int) -> Array:
    """Flat scatter-add accumulation of one particle batch.

    Accumulates ``amplitude[p] * weights[p, m]`` (or the bare weights
    when ``amplitude`` is None) into a zero-initialised flat accumulator
    of ``size`` entries, adding strictly in flattened input order
    (particle-major, stencil-point-minor).
    """
    values = weights if amplitude is None \
        else np.asarray(amplitude)[:, None] * weights
    return np.bincount(flat_ids.ravel(), weights=values.ravel(),
                       minlength=size)


def scatter_flat(flat_ids: Array, weights: Array, out: Array) -> None:
    """Single-pass scatter-add of flattened stencil weights into ``out``.

    ``flat_ids`` and ``weights`` have matching ``(n, m)`` shapes; ``out``
    is the dense target array, addressed through its raveled (row-major)
    view.
    """
    if flat_ids.size == 0:
        return
    acc = _scatter(flat_ids, weights, None, out.size)
    out += acc.reshape(out.shape)


def cell_block_ids(cell_ids: Array, nodes_per_cell: int) -> Array:
    """Flat ids into a ``(num_cells, nodes_per_cell)`` block layout.

    Row ``p`` addresses the ``nodes_per_cell`` consecutive entries of the
    block owned by ``cell_ids[p]`` — the rhocell accumulation pattern.
    """
    cell_ids = np.asarray(cell_ids, dtype=np.int64)
    return (cell_ids[:, None] * nodes_per_cell
            + np.arange(nodes_per_cell, dtype=np.int64)[None, :])


# ---------------------------------------------------------------------------
# the bounding box
# ---------------------------------------------------------------------------
@lru_cache(maxsize=256)
def _box_offsets(box_yz: Tuple[int, int], support: int) -> Array:
    """The constant ``(support**3,)`` row-major box offset vector, cached."""
    dy, dz = box_yz
    offs = np.arange(support, dtype=np.int64)
    flat = (offs[:, None, None] * dy + offs[None, :, None]) * dz \
        + offs[None, None, :]
    flat = flat.reshape(support**3)
    flat.setflags(write=False)
    return flat


def box_geometry(shape: Tuple[int, int, int], periodic: Sequence[bool],
                 base_x: Array, base_y: Array, base_z: Array, support: int
                 ) -> Tuple[Tuple[Array, Array, Array],
                            Tuple[int, int, int], Tuple[int, int, int]]:
    """Bounding box ``(bases, lo, dims)`` of a batch's stencil footprint.

    A batch whose base indices all lie within one stencil width of the
    domain keeps them (every per-step batch does: redistributed
    particles sit inside it).  A batch reaching further out has them
    brought into range on copies — periodic axes reduced mod ``n``, open
    axes clipped to ``[-support, n]`` — which address the same
    wrapped/clamped nodes, so the box stays bounded by the domain plus
    the stencil (``n + 2 * support`` per axis) however far out the batch
    lies.  Callers place the particles in the box through the returned
    ``bases``.  An empty batch gets the degenerate
    ``((0, 0, 0), (support,) * 3)`` box.
    """
    bases = (base_x, base_y, base_z)
    if base_x.shape[0] == 0:
        return bases, (0, 0, 0), (support, support, support)
    lo = tuple(int(base.min()) for base in bases)
    hi = tuple(int(base.max()) for base in bases)
    if not all(lo[a] >= -support and hi[a] <= shape[a] for a in range(3)):
        bases = tuple(np.mod(base, n) if wrap else np.clip(base, -support, n)
                      for base, n, wrap in zip(bases, shape, periodic))
        lo = tuple(int(base.min()) for base in bases)
        hi = tuple(int(base.max()) for base in bases)
    dims = tuple(hi[a] - lo[a] + support for a in range(3))
    return bases, lo, dims  # type: ignore[return-value]


def box_node_ids(box_lo: Tuple[int, int, int], box_dims: Tuple[int, int, int],
                 shape: Tuple[int, int, int], periodic: Sequence[bool]
                 ) -> Array:
    """Flat grid node id of every box node, wrapped/clamped per axis.

    Row-major over the box: reading a field's raveled view through it
    is the gather-side counterpart of :func:`apply_box` (periodic axes
    wrap, open axes repeat the boundary plane).
    """
    gx, gy, gz = (
        wrap_axis_indices(
            box_lo[a] + np.arange(box_dims[a], dtype=np.int64),
            shape[a], bool(periodic[a]))
        for a in range(3))
    return (((gx * shape[1])[:, None, None] + gy[None, :, None])
            * shape[2] + gz[None, None, :]).reshape(-1)


def _axis_segments(lo: int, dim: int, n: int, periodic: bool
                   ) -> List[Tuple[slice, object, bool]]:
    """Decompose a box axis spanning raw indices ``[lo, lo + dim)`` into
    grid segments.

    Returns ``(box_slice, grid_dest, collapse)`` triples in ascending raw
    order: ``box_slice`` selects the segment within the box, ``grid_dest``
    is the target grid slice, and ``collapse`` marks open-boundary
    overhangs that must be summed onto the single boundary plane
    ``grid_dest`` addresses.  Periodic axes emit one segment per period
    crossed (any number of wraps — short axes with ``n < support`` fold
    exactly), open axes at most three (below-domain, interior, above).
    """
    segments: List[Tuple[slice, object, bool]] = []
    if periodic:
        r = lo
        end = lo + dim
        while r < end:
            start = r % n
            length = min(n - start, end - r)
            segments.append((slice(r - lo, r - lo + length),
                             slice(start, start + length), False))
            r += length
    else:
        below = min(max(0 - lo, 0), dim)
        if below:
            segments.append((slice(0, below), slice(0, 1), True))
        interior_end = min(max(n - lo, 0), dim)
        if interior_end > below:
            segments.append((slice(below, interior_end),
                             slice(lo + below, lo + interior_end), False))
        if interior_end < dim:
            segments.append((slice(interior_end, dim),
                             slice(n - 1, n), True))
    return segments


def box_segments(box_lo: Tuple[int, int, int], box_dims: Tuple[int, int, int],
                 shape: Tuple[int, int, int],
                 periodic: Tuple[bool, bool, bool]) -> Tuple[List, ...]:
    """Per-axis wrapped/clamped segment decomposition of a box."""
    return tuple(
        _axis_segments(box_lo[a], box_dims[a], shape[a], periodic[a])
        for a in range(3)
    )


def apply_box(box: Array, segments: Tuple[List, ...], out: Array) -> None:
    """Add a box accumulator onto the grid along its segment decomposition.

    The one boundary rule of every :class:`StencilOperator` box
    scatter.
    """
    seg_x, seg_y, seg_z = segments
    for bx, gx, cx in seg_x:
        for by, gy, cy in seg_y:
            for bz, gz, cz in seg_z:
                piece = box[bx, by, bz]
                if cx:
                    piece = piece.sum(axis=0, keepdims=True)
                if cy:
                    piece = piece.sum(axis=1, keepdims=True)
                if cz:
                    piece = piece.sum(axis=2, keepdims=True)
                out[gx, gy, gz] += piece


class StencilOperator:
    """The flattened tensor-product stencil of one particle batch.

    Holds the ``(n, support**3)`` node ids — in the coordinates of the
    batch's bounding box (:func:`box_geometry`) — and weights computed
    once, and scatters through them:

    * :meth:`scatter` — deposit ``amplitude[p] * weights[p, m]`` into a
      dense grid array (one scatter-add pass per component),
    * :meth:`scatter_values` — deposit precomputed per-stencil-point
      values (the rhocell cell->node reduction).

    Inside the box nothing wraps: one constant offset vector serves
    every particle, the accumulator is tile-sized, and a fixed sequence
    of wrapped/clamped slice additions puts it onto the grid — boundary
    exact for any mix of periodic and open axes, including axes shorter
    than the stencil support.

    Built from a :class:`~repro.pic.grid.Grid` plus positions
    (:meth:`for_grid`, the reference ρ deposit), from raw normalised
    positions (:meth:`for_box`, which ``for_grid`` calls and the tests'
    oracle drives directly), from precomputed shape data
    (:meth:`from_shape_data`, the deposition staging path), or from bare
    per-axis base indices (:meth:`from_bases`, the rhocell reduction).
    """

    __slots__ = ("flat_ids", "weights", "shape", "periodic", "box_lo",
                 "box_dims", "num_particles", "_segments_cache")

    def __init__(self, flat_ids: Array,
                 weights: Optional[Array],
                 shape: Tuple[int, int, int],
                 periodic: Tuple[bool, bool, bool],
                 box_lo: Tuple[int, int, int],
                 box_dims: Tuple[int, int, int]):
        self.flat_ids = flat_ids
        self.weights = weights
        self.shape = shape
        self.periodic = periodic
        self.box_lo = box_lo
        self.box_dims = box_dims
        self.num_particles = flat_ids.shape[0]
        self._segments_cache = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_bases(cls, shape: Tuple[int, int, int], periodic: Sequence[bool],
                   base_x: Array, base_y: Array, base_z: Array,
                   support: int, weights: Optional[Array] = None
                   ) -> "StencilOperator":
        """Build from per-axis base node indices (ids only by default)."""
        shape = tuple(int(s) for s in shape)
        periodic = tuple(bool(p) for p in periodic)
        (base_x, base_y, base_z), lo, dims = box_geometry(
            shape, periodic, np.asarray(base_x, dtype=np.int64),
            np.asarray(base_y, dtype=np.int64),
            np.asarray(base_z, dtype=np.int64), support)
        base = ((base_x - lo[0]) * dims[1] + (base_y - lo[1])) * dims[2] \
            + (base_z - lo[2])
        ids = base[:, None] + _box_offsets((dims[1], dims[2]), support)
        return cls(ids, weights, shape, periodic, lo, dims)

    @classmethod
    def from_shape_data(cls, shape: Tuple[int, int, int],
                        periodic: Sequence[bool],
                        base_x: Array, base_y: Array, base_z: Array,
                        wx: Array, wy: Array, wz: Array
                        ) -> "StencilOperator":
        """Build from per-axis base indices and 1-D weights: the ids of
        :meth:`from_bases` with the tensor-product weights."""
        n, support = wx.shape
        weights = combined_weights(wx, wy, wz).reshape(n, support**3)
        return cls.from_bases(shape, periodic, base_x, base_y, base_z,
                              support, weights)

    @classmethod
    def for_box(cls, shape: Tuple[int, int, int], periodic: Sequence[bool],
                xi: Array, yi: Array, zi: Array, order: int
                ) -> "StencilOperator":
        """Build from grid-normalised positions on a bare index box."""
        base_x, wx = shape_factors(xi, order)
        base_y, wy = shape_factors(yi, order)
        base_z, wz = shape_factors(zi, order)
        return cls.from_shape_data(shape, periodic, base_x, base_y, base_z,
                                   wx, wy, wz)

    @classmethod
    def for_grid(cls, grid, x: Array, y: Array, z: Array,
                 order: int) -> "StencilOperator":
        """Build from physical positions on a :class:`~repro.pic.grid.Grid`."""
        xi, yi, zi = grid.normalized_position(x, y, z)
        return cls.for_box(grid.shape, grid.periodic, xi, yi, zi, order)

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def _box_scatter(self, values: Array, amplitude: Optional[Array],
                     out: Array) -> None:
        """One scatter-add pass into the bounding box, then the box
        added onto the grid (wrap/clamp per axis)."""
        if self.num_particles == 0:
            return
        if self._segments_cache is None:
            self._segments_cache = box_segments(self.box_lo, self.box_dims,
                                                self.shape, self.periodic)
        dims = self.box_dims
        box = _scatter(self.flat_ids, values, amplitude,
                       int(dims[0]) * int(dims[1]) * int(dims[2]))
        apply_box(box.reshape(dims), self._segments_cache, out)

    def scatter_values(self, values: Array, out: Array) -> None:
        """Add per-stencil-point ``values`` (shape ``(n, S^3)``) to ``out``."""
        self._box_scatter(values, None, out)

    def scatter(self, amplitude: Optional[Array], out: Array) -> None:
        """Add ``amplitude[p] * weights[p, m]`` to the dense array ``out``.

        ``amplitude`` is a per-particle factor (charge/current term); pass
        ``None`` to scatter the bare stencil weights.
        """
        self._box_scatter(self.weights, amplitude, out)
