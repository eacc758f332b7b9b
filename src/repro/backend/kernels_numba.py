"""The fused (numba) kernel tier: compiled build+scatter loops.

The NumPy oracle spends most of a CIC deposition materialising the
``(n, support**3)`` id/weight arrays and the ``amplitude * weights``
product before ``np.bincount`` ever runs.  The kernels here fuse those
passes into single compiled loops: :func:`scatter3` deposits all three
current components in one pass over the particles with **no**
``(n, support**3)`` intermediates at all.

Bitwise contract
----------------
Every kernel is bitwise identical to the oracle, by construction:

* ``np.bincount`` adds strictly in flattened input order
  (particle-major, stencil-point-minor); the compiled loops accumulate
  in exactly that order.
* Each weight is formed with the oracle's operation sequence —
  ``(wx[i] * wy[j]) * wz[k]``, then one multiply by the per-particle
  amplitude — so every intermediate rounds identically.
* The functions are compiled with numba's default ``fastmath=False``,
  which preserves IEEE semantics: no reassociation, no FMA contraction.
  Do **not** enable fastmath here; it would break the bitwise pin
  against the oracle (and with it the cross-tier cache-key sharing).

The gather is intentionally *not* a compiled kernel.  The per-step
gather (:func:`repro.pic.gather.gather_fields_for_tile`) is a stack of
BLAS block products with no tier seam at all, and the stencil engine's
generic adjoint (:meth:`~repro.pic.stencil.StencilOperator.gather`)
reduces with ``np.einsum``, whose pairwise/SIMD order a sequential loop
cannot reproduce bitwise — so both tiers share both, and the fused tier
accelerates the stencil *build* (this module's :func:`build_weights`)
and the scatters only: identical arrays in, identical reduction,
identical bits out.

Missing-dependency behaviour: when numba is not importable the
``@njit`` decoration is skipped and the implementations below remain
plain Python functions.  They are far too slow to *run* as a tier
(:func:`repro.backend.activate` refuses the tier and auto-selection
falls back to the oracle, noted once below), but they stay directly
callable — which is how the no-numba test environment pins the fused
algorithms bitwise against the oracle without compiling anything.
"""

from __future__ import annotations

import logging
from typing import Optional, Tuple

import numpy as np

from repro.backend.base import Array
from repro.obs.log import log_event

try:  # pragma: no cover - exercised via the CI [jit] leg
    from numba import njit as _njit

    _NUMBA_IMPORT_ERROR: Optional[BaseException] = None
except ImportError as exc:  # numba is an optional extra
    _njit = None
    _NUMBA_IMPORT_ERROR = exc
    log_event(
        "tier.fallback",
        "kernel tier 'fused' unavailable (%s); auto-selection falls "
        "back to the oracle tier", exc,
        logger=logging.getLogger("repro.backend"), level=logging.INFO,
        tier="fused",
    )


def available() -> bool:
    """True when numba imported and the kernels are compiled."""
    return _njit is not None


def unavailable_reason() -> str:
    """Human-readable reason the tier cannot be selected explicitly."""
    if _njit is not None:
        return ""
    return (f"numba is not importable ({_NUMBA_IMPORT_ERROR}); "
            "install the optional [jit] extra to enable the fused tier")


def _maybe_jit(fn):
    """``numba.njit`` when available, the plain function otherwise.

    ``cache=True`` persists the compiled machine code next to the
    module, so repeated processes (campaign workers, pytest runs) skip
    recompilation.  fastmath stays at numba's default (False) — see the
    bitwise contract above.
    """
    if _njit is None:
        return fn
    return _njit(cache=True)(fn)


# ---------------------------------------------------------------------------
# compiled loop bodies (pure Python when numba is absent; the _impl names
# are what the no-numba parity tests call directly)
# ---------------------------------------------------------------------------

def _build_weights_impl(base_x, base_y, base_z, wx, wy, wz,
                        lo0, lo1, lo2, d1, d2):
    n, support = wx.shape
    s3 = support * support * support
    ids = np.empty((n, s3), dtype=np.int64)
    wts = np.empty((n, s3), dtype=np.float64)
    for p in range(n):
        m = 0
        for i in range(support):
            a = wx[p, i]
            row_i = (base_x[p] - lo0 + i) * d1
            for j in range(support):
                ab = a * wy[p, j]
                row_ij = (row_i + (base_y[p] - lo1 + j)) * d2
                for k in range(support):
                    ids[p, m] = row_ij + (base_z[p] - lo2 + k)
                    wts[p, m] = ab * wz[p, k]
                    m += 1
    return ids, wts


def _scatter_values_impl(flat_ids, values, size):
    out = np.zeros(size, dtype=np.float64)
    n, s3 = flat_ids.shape
    for p in range(n):
        for m in range(s3):
            out[flat_ids[p, m]] += values[p, m]
    return out


def _scatter_scaled_impl(flat_ids, weights, amplitude, size):
    out = np.zeros(size, dtype=np.float64)
    n, s3 = flat_ids.shape
    for p in range(n):
        a = amplitude[p]
        for m in range(s3):
            out[flat_ids[p, m]] += a * weights[p, m]
    return out


def _scatter3_impl(base_x, base_y, base_z, wx, wy, wz, ax, ay, az,
                   lo0, lo1, lo2, d1, d2, size):
    jx = np.zeros(size, dtype=np.float64)
    jy = np.zeros(size, dtype=np.float64)
    jz = np.zeros(size, dtype=np.float64)
    n, support = wx.shape
    for p in range(n):
        amp_x = ax[p]
        amp_y = ay[p]
        amp_z = az[p]
        for i in range(support):
            a = wx[p, i]
            row_i = (base_x[p] - lo0 + i) * d1
            for j in range(support):
                ab = a * wy[p, j]
                row_ij = (row_i + (base_y[p] - lo1 + j)) * d2
                for k in range(support):
                    w = ab * wz[p, k]
                    idx = row_ij + (base_z[p] - lo2 + k)
                    jx[idx] += amp_x * w
                    jy[idx] += amp_y * w
                    jz[idx] += amp_z * w
    return jx, jy, jz


_build_weights_jit = _maybe_jit(_build_weights_impl)
_scatter_values_jit = _maybe_jit(_scatter_values_impl)
_scatter_scaled_jit = _maybe_jit(_scatter_scaled_impl)
_scatter3_jit = _maybe_jit(_scatter3_impl)


# ---------------------------------------------------------------------------
# the tier's kernels (argument normalisation + empty-batch guards
# stay in Python; the loops above never see a zero-particle batch)
# ---------------------------------------------------------------------------

def build_weights(base_x: Array, base_y: Array, base_z: Array,
                  wx: Array, wy: Array, wz: Array,
                  lo: Tuple[int, int, int], dims: Tuple[int, int, int]
                  ) -> Tuple[Array, Array]:
    """Fused box-local id + combined-weight build (oracle signature)."""
    n, support = wx.shape
    if n == 0:
        return (np.empty((0, support**3), dtype=np.int64),
                np.empty((0, support**3), dtype=np.float64))
    return _build_weights_jit(base_x, base_y, base_z, wx, wy, wz,
                              lo[0], lo[1], lo[2], dims[1], dims[2])


def scatter(flat_ids: Array, weights: Array, amplitude: Optional[Array],
            size: int) -> Array:
    """Fused amplitude-scale + scatter-add (oracle signature)."""
    if flat_ids.shape[0] == 0:
        return np.zeros(size)
    if amplitude is None:
        return _scatter_values_jit(flat_ids, weights, size)
    return _scatter_scaled_jit(flat_ids, weights,
                               np.ascontiguousarray(amplitude), size)


def scatter3(base_x: Array, base_y: Array, base_z: Array,
             wx: Array, wy: Array, wz: Array,
             ax: Array, ay: Array, az: Array,
             lo: Tuple[int, int, int], dims: Tuple[int, int, int]
             ) -> Tuple[Array, Array, Array]:
    """Fully fused three-component deposit into box accumulators.

    One compiled pass over the particles builds nothing intermediate:
    weights are formed on the fly and all three current components
    accumulate into flat bounding-box arrays, returned reshaped to
    ``dims``.  The caller applies the boxes to the grid through the
    shared wrapped/clamped segment logic of :mod:`repro.pic.stencil`,
    so boundary handling stays identical across tiers and step paths.
    """
    size = int(dims[0]) * int(dims[1]) * int(dims[2])
    jx, jy, jz = _scatter3_jit(base_x, base_y, base_z, wx, wy, wz,
                               ax, ay, az, lo[0], lo[1], lo[2],
                               dims[1], dims[2], size)
    shape = tuple(int(d) for d in dims)
    return jx.reshape(shape), jy.reshape(shape), jz.reshape(shape)
