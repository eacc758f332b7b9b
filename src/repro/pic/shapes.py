"""Particle shape functions (assignment functions) for deposition and gather.

The paper evaluates the first-order Cloud-in-Cell (CIC) scheme and the
third-order scheme it calls QSP; the second-order Triangular-Shaped-Cloud
(TSC) scheme is mentioned as an extension (§4.2.1) and is implemented here
as well.  All functions operate on *grid-normalised* coordinates
``xi = (x - lo) / dx`` and return, per particle, the index of the first grid
node that receives a contribution together with the 1-D weights for the
``order + 1`` consecutive nodes starting there.

The weights of every scheme sum to exactly one (charge conservation of the
assignment function), which the property-based tests rely on.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.config import SHAPE_ORDER_CIC, SHAPE_ORDER_QSP, SHAPE_ORDER_TSC


def shape_support(order: int) -> int:
    """Number of grid nodes touched along one axis by a shape of ``order``."""
    if order not in (SHAPE_ORDER_CIC, SHAPE_ORDER_TSC, SHAPE_ORDER_QSP):
        raise ValueError(f"unsupported shape order {order}")
    return order + 1


def shape_factors(xi: np.ndarray, order: int) -> Tuple[np.ndarray, np.ndarray]:
    """1-D shape factors for particles at grid-normalised positions ``xi``.

    Parameters
    ----------
    xi:
        Array of grid-normalised positions (position divided by cell size,
        measured from the grid lower corner).
    order:
        1 (CIC), 2 (TSC) or 3 (QSP).

    Returns
    -------
    base:
        Integer array, the index of the first node receiving weight.  The
        caller is responsible for wrapping/clamping these indices at domain
        boundaries.
    weights:
        Array of shape ``(len(xi), order + 1)`` with the per-node weights.
    """
    xi = np.asarray(xi, dtype=np.float64)
    if order == SHAPE_ORDER_CIC:
        return _cic_factors(xi)
    if order == SHAPE_ORDER_TSC:
        return _tsc_factors(xi)
    if order == SHAPE_ORDER_QSP:
        return _qsp_factors(xi)
    raise ValueError(f"unsupported shape order {order}")


def _cic_factors(xi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """First-order (linear / Cloud-in-Cell) weights on 2 nodes."""
    base = np.floor(xi).astype(np.int64)
    d = xi - base
    weights = np.empty(xi.shape + (2,))
    np.subtract(1.0, d, out=weights[..., 0])
    weights[..., 1] = d
    return base, weights


def _tsc_factors(xi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Second-order (Triangular-Shaped-Cloud) weights on 3 nodes."""
    nearest = np.floor(xi + 0.5).astype(np.int64)
    delta = xi - nearest
    weights = np.empty(xi.shape + (3,))
    np.multiply(0.5, (0.5 - delta) ** 2, out=weights[..., 0])
    np.subtract(0.75, delta**2, out=weights[..., 1])
    np.multiply(0.5, (0.5 + delta) ** 2, out=weights[..., 2])
    return nearest - 1, weights


def _qsp_factors(xi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Third-order (cubic B-spline, "QSP" in the paper) weights on 4 nodes."""
    cell = np.floor(xi).astype(np.int64)
    d = xi - cell
    d2 = d**2
    d3 = d**3
    weights = np.empty(xi.shape + (4,))
    np.divide((1.0 - d) ** 3, 6.0, out=weights[..., 0])
    np.divide(4.0 - 6.0 * d2 + 3.0 * d3, 6.0, out=weights[..., 1])
    np.divide(1.0 + 3.0 * d + 3.0 * d2 - 3.0 * d3, 6.0,
              out=weights[..., 2])
    np.divide(d3, 6.0, out=weights[..., 3])
    return cell - 1, weights


def combined_weights(
    wx: np.ndarray, wy: np.ndarray, wz: np.ndarray
) -> np.ndarray:
    """Tensor product of per-axis 1-D weights.

    Given per-particle weight vectors of lengths ``(sx, sy, sz)`` this
    returns an array of shape ``(n, sx, sy, sz)`` whose entries are
    ``wx[p, i] * wy[p, j] * wz[p, k]`` — the 3-D shape function
    ``S_ijk(x_p)`` of §4.2.1.

    Computed as two staged broadcast products (xy plane, then z) — the
    small intermediate keeps the hot second pass streaming, measurably
    faster than a one-shot three-operand ``einsum``.
    """
    n, sx = wx.shape
    sy = wy.shape[1]
    sz = wz.shape[1]
    xy = (wx[:, :, None] * wy[:, None, :]).reshape(n, sx * sy)
    return (xy[:, :, None] * wz[:, None, :]).reshape(n, sx, sy, sz)
