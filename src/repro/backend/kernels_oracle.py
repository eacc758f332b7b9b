"""The NumPy oracle kernel tier.

These are the library's reference numerics — the flat-index formulation
of :mod:`repro.pic.stencil` (one vectorised ``(n, support**3)`` id/weight
build, one ``np.bincount`` accumulation pass per component) packaged as
tier kernels.  The implementations delegate to the stencil module's
own helpers, so this tier *is* the historical code path, verbatim; every
other tier is pinned bitwise against it by the hypothesis suite in
``tests/test_stencil.py``.

Imports from :mod:`repro.pic` happen lazily inside the kernels: this
module is imported by the tier table, which :mod:`repro.pic` itself
imports.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.backend.base import Array


def build_weights(base_x: Array, base_y: Array, base_z: Array,
                  wx: Array, wy: Array, wz: Array,
                  lo: Tuple[int, int, int], dims: Tuple[int, int, int]
                  ) -> Tuple[Array, Array]:
    """Flattened box-local node ids and tensor-product weights.

    Inputs are the per-axis base node indices (``(n,)`` int64) and 1-D
    shape-factor weights (``(n, support)``) of one particle batch, plus
    the batch's bounding box ``lo``/``dims``; returns the matching
    ``(n, support**3)`` box-local linear ids and combined weights in the
    row-major ``(i, j, k)`` stencil-point order shared by every consumer.
    """
    from repro.pic.shapes import combined_weights
    from repro.pic.stencil import _box_offsets

    n, support = wx.shape
    weights = combined_weights(wx, wy, wz).reshape(n, support**3)
    base = ((base_x - lo[0]) * dims[1] + (base_y - lo[1])) * dims[2] \
        + (base_z - lo[2])
    ids = base[:, None] + _box_offsets((dims[1], dims[2]), support)
    return ids, weights


def scatter(flat_ids: Array, weights: Array, amplitude: Optional[Array],
            size: int) -> Array:
    """Flat scatter-add accumulation of one particle batch.

    Accumulates ``amplitude[p] * weights[p, m]`` (or the bare weights
    when ``amplitude`` is None) into a zero-initialised flat accumulator
    of ``size`` entries, adding strictly in flattened input order
    (particle-major, stencil-point-minor) — the accumulation-order
    contract every tier must honour bitwise.
    """
    if flat_ids.shape[0] == 0:
        return np.zeros(size)
    values = weights if amplitude is None \
        else np.asarray(amplitude)[:, None] * weights
    return np.bincount(flat_ids.ravel(), weights=values.ravel(),
                       minlength=size)


#: The oracle has no fused three-component deposit: the stencil path
#: (shared id/weight build + one :func:`scatter` pass per component) is
#: the reference formulation.  Consumers treat a ``None`` ``scatter3`` as
#: "use the stencil path".
scatter3 = None
