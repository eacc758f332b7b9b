"""Flat-index stencil scatter/gather engine.

Every particle-mesh kernel in this library — current deposition, charge
deposition, the rhocell cell->node reduction, the field gather, and the
PM/PME workloads of Appendix B — evaluates the same tensor-product stencil:
a particle at grid-normalised position ``xi`` touches ``support`` nodes per
axis with separable 1-D weights, i.e. ``support**3`` grid nodes in total.
(The per-step field gather does not build that stencil per particle: it
is the cell-grouped block product of :mod:`repro.pic.gather`, which
borrows this module's bounding box and wrap/clamp rule.  The adjoint
here, :meth:`StencilOperator.gather`, is the boundary-exact generic form
— the Appendix-B workloads, the far-out-of-domain fallback and the
oracle the block form is tested against.)

Historically each consumer walked that stencil with a triple Python loop,
issuing one ``np.add.at`` (NumPy's slowest scatter primitive: an unbuffered
ufunc dispatch through a 3-tuple fancy index) per ``(i, j, k)`` offset and
per current component — ``3 * support**3`` calls per tile, 192 at QSP
order.  This module replaces that pattern with a single-pass formulation:

1. node indices are resolved **once per axis** (not once per stencil
   offset inside the loop nest).  On the fast path the operator works in
   the coordinates of the batch's *bounding box* (the tile's cells plus
   the stencil ghost ring): no wrapping is needed inside the box, the
   ``support**3`` stencil offsets are the same constant cached vector for
   every particle, and the full ``(n, support**3)`` id array is one
   broadcast add off the particles' base corner id,
2. the tensor-product weights are flattened to the matching
   ``(n, support**3)`` layout,
3. each component is accumulated with a single scatter-add pass over the
   flattened stencil into a box accumulator, and the box is then applied
   to the grid as a handful of slice additions: periodic axes wrap the
   box's overhanging segments around (as many periods as needed), open
   axes collapse them onto the boundary plane.  The adjoint gather
   extracts the same wrapped/clamped box from the field and reads it
   through the shared ids and weights.

The box is *tile-sized*, not grid-sized, so the per-tile cost is
``O(n_particles * support**3 + box)`` — independent of the global grid
resolution (the historical formulation's fancy-index scatters shared this
property, which a naive whole-grid ``bincount(minlength=grid)`` would
lose on multi-tile domains).

Kernel dispatch
---------------
The two inner primitives — the ``(n, support**3)`` id/weight *build* and
the flattened scatter-add *accumulation* — dispatch through the kernel
table of :mod:`repro.backend` (``build_weights`` and ``scatter``), so
a compiled tier replaces exactly those passes while the boundary
handling (the wrapped/clamped segment application below) stays this
module's shared NumPy code on every tier.  Which tier is the caller's
to say: an operator carries the dispatch table it was built with
(``kernels=`` — :meth:`StencilOperator.for_grid` copies ``grid.kernels``)
and only a caller with no run gets the default, ``activate()``.

Determinism contract
--------------------
The scatter kernel accumulates strictly in flattened input order
(particle-major, stencil-point-minor — ``np.bincount`` order; every
tier honours it bitwise) and the box is applied as a fixed
sequence of slice additions, so the result is a pure function of the
flattened stencil — bitwise reproducible across runs, executor backends
(the shard partition fixes the input order) and kernel tiers.  The
summation order *within* a node differs from the historical
``np.add.at`` loop nest (particle-major here, offset-major there), so
individual sums may differ from the old code in the last ulp; all
consumers route through this one primitive, which preserves the
cross-kernel equivalence properties by construction.  The property suite
in ``tests/test_stencil.py`` pins the engine against an ``np.add.at``
oracle on every registered tier.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import ActiveKernels, Array, activate
from repro.pic.shapes import combined_weights, shape_factors

__all__ = [
    "wrap_axis_indices",
    "flat_node_ids",
    "scatter_flat",
    "cell_block_ids",
    "box_geometry",
    "box_node_ids",
    "box_segments",
    "apply_box",
    "StencilOperator",
]


def wrap_axis_indices(idx: Array, n: int, periodic: bool) -> Array:
    """Wrap (periodic) or clamp (open boundary) node indices on one axis."""
    if periodic:
        return np.mod(idx, n)
    return np.clip(idx, 0, n - 1)


def flat_node_ids(shape: Tuple[int, int, int], periodic: Sequence[bool],
                  base_x: Array, base_y: Array, base_z: Array,
                  support: int) -> Array:
    """Row-major linear node ids of every stencil point, per particle.

    The wrapped per-axis indices are computed once for all ``support``
    offsets of each axis (three ``(n, support)`` arrays), then combined
    into an ``(n, support**3)`` id array whose trailing axis is ordered
    ``(i, j, k)`` row-major with ``k`` fastest — matching both the rhocell
    flattening and :func:`repro.pic.shapes.combined_weights`.

    This is the boundary-exact reference formulation, valid for arbitrary
    (even far out-of-domain) base indices; the per-step hot paths use the
    bounding-box :class:`StencilOperator` fast path instead.
    """
    nx, ny, nz = shape
    base_x = np.asarray(base_x, dtype=np.int64)
    n = base_x.shape[0]
    offsets = np.arange(support, dtype=np.int64)
    gx = wrap_axis_indices(base_x[:, None] + offsets, nx,
                           bool(periodic[0])) * (ny * nz)
    gy = wrap_axis_indices(
        np.asarray(base_y, dtype=np.int64)[:, None] + offsets,
        ny, bool(periodic[1])) * nz
    gz = wrap_axis_indices(
        np.asarray(base_z, dtype=np.int64)[:, None] + offsets,
        nz, bool(periodic[2]))
    # staged like the weight tensor product: the small (n, S^2) xy plane
    # first, then one streaming pass over the full stencil
    plane = (gx[:, :, None] + gy[:, None, :]).reshape(n, support * support)
    return (plane[:, :, None] + gz[:, None, :]).reshape(n, support**3)


def _kernels_or_default(kernels: Optional[ActiveKernels]) -> ActiveKernels:
    """``kernels``, or the default selection for a caller with no run."""
    return kernels if kernels is not None else activate()


def scatter_flat(flat_ids: Array, weights: Array, out: Array,
                 kernels: Optional[ActiveKernels] = None) -> None:
    """Single-pass scatter-add of flattened stencil weights into ``out``.

    ``flat_ids`` and ``weights`` have matching ``(n, m)`` shapes; ``out``
    is the dense target array, addressed through its raveled (row-major)
    view.  The accumulation pass dispatches to the ``kernels`` tier.
    """
    if flat_ids.size == 0:
        return
    acc = _kernels_or_default(kernels).scatter(flat_ids, weights, None,
                                               out.size)
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
# bounding-box fast path
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


def box_geometry(shape: Tuple[int, int, int],
                 base_x: Array, base_y: Array, base_z: Array, support: int
                 ) -> Optional[Tuple[Tuple[int, int, int],
                                     Tuple[int, int, int]]]:
    """Bounding box ``(lo, dims)`` of a batch's stencil footprint.

    Returns ``None`` when any base index lies more than one stencil
    width outside the domain: the box would grow unboundedly, so such
    batches take the exact wrapped-space fallback instead.  Every
    per-step caller stays in range because redistributed particles sit
    within one stencil width of the domain.  An empty batch gets the
    degenerate ``((0, 0, 0), (support,) * 3)`` box.
    """
    if base_x.shape[0] == 0:
        return (0, 0, 0), (support, support, support)
    lo = (int(base_x.min()), int(base_y.min()), int(base_z.min()))
    hi = (int(base_x.max()), int(base_y.max()), int(base_z.max()))
    if not all(lo[a] >= -support and hi[a] <= shape[a] for a in range(3)):
        return None
    dims = tuple(hi[a] - lo[a] + support for a in range(3))
    return lo, dims  # type: ignore[return-value]


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

    Shared by every scatter path — the :class:`StencilOperator` box
    application and the fused three-component deposit — so boundary
    handling is identical across kernel tiers by construction.
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

    Holds the ``(n, support**3)`` linear node ids and weights computed
    once, and applies them in either direction:

    * :meth:`scatter` — deposit ``amplitude[p] * weights[p, m]`` into a
      dense grid array (one scatter-add kernel pass per component),
    * :meth:`scatter_values` — deposit precomputed per-stencil-point
      values (the rhocell cell->node reduction),
    * :meth:`gather` — interpolate a dense grid array back to the
      particles (the exact adjoint, sharing ids and weights).

    On the fast path the ids live in the batch's bounding box
    (``box_lo``/``box_dims`` set): no per-point wrapping, one constant
    offset vector for every particle, a tile-sized accumulator, and a
    fixed sequence of wrapped/clamped slice additions onto the grid.
    Base indices far outside the domain (more than one stencil width)
    would make the box unboundedly large, so they fall back to exact
    per-point wrapping (``box_dims is None``); both modes produce
    boundary-exact results for any mix of periodic and open axes,
    including axes shorter than the stencil support.

    Built from a :class:`~repro.pic.grid.Grid` plus positions
    (:meth:`for_grid`), from raw normalised positions (:meth:`for_box`,
    used by the grid-less PM/PME workloads), from precomputed shape data
    (:meth:`from_shape_data`, the deposition staging path — this is
    where the ``build_weights`` kernel runs), or from bare per-axis base
    indices (:meth:`from_bases`, the rhocell reduction).  Every
    constructor takes the ``kernels`` dispatch table its scatters go
    through.
    """

    __slots__ = ("flat_ids", "weights", "shape", "periodic", "box_lo",
                 "box_dims", "num_particles", "kernels", "_segments_cache")

    def __init__(self, flat_ids: Array,
                 weights: Optional[Array],
                 shape: Tuple[int, int, int],
                 periodic: Tuple[bool, bool, bool],
                 box_lo: Optional[Tuple[int, int, int]],
                 box_dims: Optional[Tuple[int, int, int]],
                 kernels: Optional[ActiveKernels] = None):
        self.kernels = _kernels_or_default(kernels)
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
                   support: int, weights: Optional[Array] = None,
                   kernels: Optional[ActiveKernels] = None
                   ) -> "StencilOperator":
        """Build from per-axis base node indices (ids only by default)."""
        shape = tuple(int(s) for s in shape)
        periodic = tuple(bool(p) for p in periodic)
        base_x = np.asarray(base_x, dtype=np.int64)
        base_y = np.asarray(base_y, dtype=np.int64)
        base_z = np.asarray(base_z, dtype=np.int64)
        geometry = box_geometry(shape, base_x, base_y, base_z, support)
        if geometry is None:
            ids = flat_node_ids(shape, periodic, base_x, base_y, base_z,
                                support)
            return cls(ids, weights, shape, periodic, None, None, kernels)
        lo, dims = geometry
        base = ((base_x - lo[0]) * dims[1] + (base_y - lo[1])) * dims[2] \
            + (base_z - lo[2])
        ids = base[:, None] + _box_offsets((dims[1], dims[2]), support)
        return cls(ids, weights, shape, periodic, lo, dims, kernels)

    @classmethod
    def from_shape_data(cls, shape: Tuple[int, int, int],
                        periodic: Sequence[bool],
                        base_x: Array, base_y: Array, base_z: Array,
                        wx: Array, wy: Array, wz: Array,
                        kernels: Optional[ActiveKernels] = None
                        ) -> "StencilOperator":
        """Build from per-axis base indices and 1-D weights.

        The combined id/weight build dispatches to the ``build_weights``
        kernel of ``kernels`` on the bounding-box fast path; the
        out-of-range fallback keeps the exact wrapped-space oracle
        formulation on every tier.
        """
        shape = tuple(int(s) for s in shape)
        periodic = tuple(bool(p) for p in periodic)
        n, support = wx.shape
        base_x = np.asarray(base_x, dtype=np.int64)
        base_y = np.asarray(base_y, dtype=np.int64)
        base_z = np.asarray(base_z, dtype=np.int64)
        geometry = box_geometry(shape, base_x, base_y, base_z, support)
        if geometry is None:
            weights = combined_weights(wx, wy, wz).reshape(n, support**3)
            ids = flat_node_ids(shape, periodic, base_x, base_y, base_z,
                                support)
            return cls(ids, weights, shape, periodic, None, None, kernels)
        lo, dims = geometry
        kernels = _kernels_or_default(kernels)
        ids, weights = kernels.build_weights(
            base_x, base_y, base_z, wx, wy, wz, lo, dims)
        return cls(ids, weights, shape, periodic, lo, dims, kernels)

    @classmethod
    def for_box(cls, shape: Tuple[int, int, int], periodic: Sequence[bool],
                xi: Array, yi: Array, zi: Array, order: int,
                kernels: Optional[ActiveKernels] = None
                ) -> "StencilOperator":
        """Build from grid-normalised positions on a bare index box."""
        base_x, wx = shape_factors(xi, order)
        base_y, wy = shape_factors(yi, order)
        base_z, wz = shape_factors(zi, order)
        return cls.from_shape_data(shape, periodic, base_x, base_y, base_z,
                                   wx, wy, wz, kernels)

    @classmethod
    def for_grid(cls, grid, x: Array, y: Array, z: Array,
                 order: int) -> "StencilOperator":
        """Build from physical positions on a :class:`~repro.pic.grid.Grid`."""
        xi, yi, zi = grid.normalized_position(x, y, z)
        return cls.for_box(grid.shape, grid.periodic, xi, yi, zi, order,
                           grid.kernels)

    # ------------------------------------------------------------------
    # box <-> grid transfer
    # ------------------------------------------------------------------
    def _segments(self) -> Tuple[List, ...]:
        if self._segments_cache is None:
            self._segments_cache = box_segments(self.box_lo, self.box_dims,
                                                self.shape, self.periodic)
        return self._segments_cache

    def _apply_box(self, box: Array, out: Array) -> None:
        """Add the box accumulator onto the grid (wrap/clamp per axis)."""
        apply_box(box, self._segments(), out)

    def box_accumulate(self, values: Array) -> Array:
        """The dense bounding-box accumulation of per-stencil-point values.

        This is the first half of :meth:`scatter_values` on the fast path:
        one scatter-add kernel pass over the flattened stencil, *before*
        the box is folded onto the grid.

        Requires the bounding-box fast path (``box_dims`` set); per-step
        callers always satisfy this because redistributed particles sit
        within one stencil width of the domain.
        """
        if self.box_dims is None:
            raise ValueError(
                "box_accumulate requires the bounding-box fast path "
                "(bases within one stencil width of the domain)"
            )
        size = int(self.box_dims[0]) * int(self.box_dims[1]) \
            * int(self.box_dims[2])
        return self.kernels.scatter(
            self.flat_ids, values, None, size).reshape(self.box_dims)

    def scatter_box(self, amplitude: Optional[Array]) -> Array:
        """Bounding-box accumulation of ``amplitude[p] * weights[p, m]``.

        The amplitude scaling is fused into the scatter kernel, so a
        compiled tier never materialises the ``(n, support**3)``
        contribution temporary.
        """
        if self.box_dims is None:
            raise ValueError(
                "scatter_box requires the bounding-box fast path "
                "(bases within one stencil width of the domain)"
            )
        if amplitude is None:
            return self.box_accumulate(self.weights)
        size = int(self.box_dims[0]) * int(self.box_dims[1]) \
            * int(self.box_dims[2])
        return self.kernels.scatter(
            self.flat_ids, self.weights, amplitude, size
        ).reshape(self.box_dims)

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def scatter_values(self, values: Array, out: Array) -> None:
        """Add per-stencil-point ``values`` (shape ``(n, S^3)``) to ``out``."""
        if self.num_particles == 0:
            return
        if self.box_dims is None:
            scatter_flat(self.flat_ids, values, out, self.kernels)
            return
        self._apply_box(self.box_accumulate(values), out)

    def scatter(self, amplitude: Optional[Array], out: Array) -> None:
        """Add ``amplitude[p] * weights[p, m]`` to the dense array ``out``.

        ``amplitude`` is a per-particle factor (charge/current term); pass
        ``None`` to scatter the bare stencil weights.
        """
        if self.num_particles == 0:
            return
        if self.box_dims is None:
            if amplitude is None:
                contributions = self.weights
            else:
                contributions = np.asarray(amplitude)[:, None] * self.weights
            scatter_flat(self.flat_ids, contributions, out, self.kernels)
            return
        self._apply_box(self.scatter_box(amplitude), out)

    def gather(self, field: Array) -> Array:
        """Interpolate ``field`` to the particles (adjoint of scatter).

        The generic, boundary-exact adjoint: one ``(n, S^3)`` fancy-index
        read of the field through the shared ids, reduced against the
        weights by a fused ``einsum`` (no product temporary).  It serves
        the grid-less Appendix-B workloads and batches far outside the
        domain, and is the oracle of the per-step gather — which does
        not come through here: :func:`repro.pic.gather.
        gather_fields_for_tile` computes the same sums as cell-grouped
        block products without the ``(n, S^3)`` arrays.  The reduction
        is deliberately *not* tier-dispatched: einsum's pairwise
        accumulation order is not reproducible by a sequential compiled
        loop, so every tier shares this one reduce.
        """
        if self.num_particles == 0:
            return np.empty(0)
        source = field.reshape(-1)
        if self.box_dims is not None:  # the wrapped/clamped box copy
            source = source[box_node_ids(self.box_lo, self.box_dims,
                                         self.shape, self.periodic)]
        return np.einsum("pn,pn->p", source[self.flat_ids], self.weights)

    def gather_many(self, fields: Sequence[Array]) -> Tuple[Array, ...]:
        """Interpolate several field components through the shared stencil."""
        return tuple(self.gather(field) for field in fields)
