"""The per-pair MPU emulator: Algorithm 2's MOPA mapping, kept as a test oracle.

:class:`MatrixUnit` is a functional model of the LX2 core's Matrix
Processing Unit.  It executes Matrix-Outer-Product-Accumulate (MOPA)
instructions: given two FP64 vector operands ``a`` (length <= 8) and
``b`` (length <= 8) it accumulates ``a (x) b`` into an 8x8 FP64 tile
register (Equation 3 of the paper).  The unit has no scatter/gather or
predication support, so all operand staging is done by the VPU.  It
keeps a real tile register (a NumPy array) and charges every
instruction to a :class:`~repro.hardware.counters.PhaseCounters`.

``deposit_cell_cic_mpu`` / ``deposit_cell_qsp_mpu`` drive it pair by
pair exactly as Algorithm 2 describes (§4.2.1):

* **CIC (order 1).**  For two particles ``p1, p2`` of the same cell the
  operands are ``A = [w_p1 s_x0, w_p1 s_x1, w_p2 s_x0, w_p2 s_x1]`` (one
  current component at a time) and
  ``B = [s_y0 s_z0, s_y1 s_z0, s_y0 s_z1, s_y1 s_z1`` for ``p1`` followed
  by the same four terms for ``p2]``.  The 4x8 outer product holds
  ``p1``'s eight nodal contributions in its upper-left 2x4 block and
  ``p2``'s in the lower-right one, so the tile stays resident and
  accumulates every pair of a cell before one read-out.

* **QSP (order 3).**  The operands are ``A = [w_p1 s_x0..3, w_p2
  s_x0..3]`` and ``B = [s_y0..3(p1), s_y0..3(p2)]``; the 8x8 outer
  product holds each particle's 4x4 block of ``w s_x s_y`` products.
  The multiplication by the four ``s_z`` factors and the accumulation
  into the 64-entry rhocell is VPU work, so the tile is read back per
  pair.

None of this runs in a simulation: the production Stage 2 is
``repro.core.mpu_deposit.tile_rhocells`` (stacked block products handed
to BLAS).  ``tests/test_mpu_deposit.py`` holds that kernel to this
mapping per cell (:func:`emulated_tile_rhocells`, to summation order)
and, for a cell-sorted processing order, ties its modelled MOPA count
to the instructions the units execute.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.hardware.counters import PhaseCounters


class MatrixUnit:
    """An 8x8 FP64 outer-product-accumulate tile engine."""

    def __init__(self, rows: int = 8, cols: int = 8,
                 counters: Optional[PhaseCounters] = None):
        if rows <= 0 or cols <= 0:
            raise ValueError("tile dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.counters = counters if counters is not None else PhaseCounters()
        self._tile = np.zeros((rows, cols))

    # ------------------------------------------------------------------
    def bind(self, counters: PhaseCounters) -> None:
        """Redirect subsequent instruction counts to ``counters``."""
        self.counters = counters

    @property
    def tile(self) -> np.ndarray:
        """Read-only view of the tile register (for tests/diagnostics)."""
        return self._tile.copy()

    # ------------------------------------------------------------------
    def zero_tile(self) -> None:
        """Clear the tile register (one tile-management instruction)."""
        self._tile.fill(0.0)
        self.counters.add(mpu_tile_moves=1.0)

    def mopa(self, a: np.ndarray, b: np.ndarray) -> None:
        """One outer-product-accumulate: ``tile += a (x) b``.

        Operands shorter than the tile dimensions are zero-padded, matching
        the paper's description of zeroing unused lanes during operand
        construction (§4.2.1).
        """
        a = np.asarray(a, dtype=np.float64).ravel()
        b = np.asarray(b, dtype=np.float64).ravel()
        if a.size > self.rows or b.size > self.cols:
            raise ValueError(
                f"operand lengths ({a.size}, {b.size}) exceed tile "
                f"({self.rows}x{self.cols})"
            )
        pa = np.zeros(self.rows)
        pb = np.zeros(self.cols)
        pa[: a.size] = a
        pb[: b.size] = b
        self._tile += np.outer(pa, pb)
        self.counters.add(mpu_mopa=1.0)

    def read_tile(self, rows: Optional[int] = None,
                  cols: Optional[int] = None) -> np.ndarray:
        """Move the (sub-)tile out to VPU registers; returns a copy."""
        rows = self.rows if rows is None else rows
        cols = self.cols if cols is None else cols
        if not (0 < rows <= self.rows and 0 < cols <= self.cols):
            raise ValueError("requested sub-tile exceeds tile dimensions")
        self.counters.add(mpu_tile_moves=1.0)
        return self._tile[:rows, :cols].copy()


# ---------------------------------------------------------------------------
# operand construction
# ---------------------------------------------------------------------------
def build_cic_operands(wx: np.ndarray, wy: np.ndarray, wz: np.ndarray,
                       wq: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """CIC MPU operands for a *pair* of particles and one current component.

    ``wx``/``wy``/``wz`` have shape ``(2, 2)`` (two particles, two 1-D shape
    factors each) and ``wq`` shape ``(2,)``.  Unused second-particle slots
    can simply be passed as zeros.  Returns ``A`` of length 4 and ``B`` of
    length 8.
    """
    wx = np.asarray(wx, dtype=np.float64).reshape(2, 2)
    wy = np.asarray(wy, dtype=np.float64).reshape(2, 2)
    wz = np.asarray(wz, dtype=np.float64).reshape(2, 2)
    wq = np.asarray(wq, dtype=np.float64).reshape(2)

    a = np.concatenate([wq[0] * wx[0], wq[1] * wx[1]])
    # b packs s_y,j * s_z,k with k varying slowest, matching the row-major
    # flattening of the rhocell (j fastest within a z-plane)
    b1 = np.concatenate([wy[0] * wz[0, 0], wy[0] * wz[0, 1]])
    b2 = np.concatenate([wy[1] * wz[1, 0], wy[1] * wz[1, 1]])
    return a, np.concatenate([b1, b2])


def build_qsp_operands(wx: np.ndarray, wy: np.ndarray, wq: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """QSP MPU operands for a pair of particles and one current component.

    ``wx``/``wy`` have shape ``(2, 4)`` and ``wq`` shape ``(2,)``.  Returns
    ``A`` and ``B`` both of length 8.
    """
    wx = np.asarray(wx, dtype=np.float64).reshape(2, 4)
    wy = np.asarray(wy, dtype=np.float64).reshape(2, 4)
    wq = np.asarray(wq, dtype=np.float64).reshape(2)
    a = np.concatenate([wq[0] * wx[0], wq[1] * wx[1]])
    b = np.concatenate([wy[0], wy[1]])
    return a, b


# ---------------------------------------------------------------------------
# per-cell paths (Algorithm 2, driven through the MatrixUnit)
# ---------------------------------------------------------------------------
def deposit_cell_cic_mpu(mpu: MatrixUnit, wx: np.ndarray, wy: np.ndarray,
                         wz: np.ndarray, wq: np.ndarray) -> np.ndarray:
    """Nodal CIC contributions of one cell's particles via MOPA instructions.

    ``wx, wy, wz`` have shape ``(n, 2)`` and ``wq`` shape ``(n,)`` for the
    ``n`` particles of the cell and one current component.  Returns the 8
    accumulated rhocell entries of the cell, ordered ``(i, j, k)`` row-major
    (x slowest).
    """
    wx = np.atleast_2d(np.asarray(wx, dtype=np.float64))
    wy = np.atleast_2d(np.asarray(wy, dtype=np.float64))
    wz = np.atleast_2d(np.asarray(wz, dtype=np.float64))
    wq = np.atleast_1d(np.asarray(wq, dtype=np.float64))
    n = wx.shape[0]

    mpu.zero_tile()
    for start in range(0, n, 2):
        pair = slice(start, min(start + 2, n))
        pwx = np.zeros((2, 2))
        pwy = np.zeros((2, 2))
        pwz = np.zeros((2, 2))
        pwq = np.zeros(2)
        count = pair.stop - pair.start
        pwx[:count] = wx[pair]
        pwy[:count] = wy[pair]
        pwz[:count] = wz[pair]
        pwq[:count] = wq[pair]
        a, b = build_cic_operands(pwx, pwy, pwz, pwq)
        mpu.mopa(a, b)

    tile = mpu.read_tile(4, 8)
    # p1 contributions: rows 0-1 x cols 0-3; p2: rows 2-3 x cols 4-7.  Both
    # blocks are (s_x_i) x (s_y_j s_z_k) with j fastest, k next; summing the
    # two blocks yields the cell's accumulated values.
    block = tile[0:2, 0:4] + tile[2:4, 4:8]
    # reorder (i, [j + 2k]) -> flat (i, j, k) row-major
    contrib = np.empty(8)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                contrib[(i * 2 + j) * 2 + k] = block[i, j + 2 * k]
    return contrib


def deposit_cell_qsp_mpu(mpu: MatrixUnit, wx: np.ndarray, wy: np.ndarray,
                         wz: np.ndarray, wq: np.ndarray) -> np.ndarray:
    """Nodal QSP contributions of one cell's particles via MOPA instructions.

    Shapes: ``wx, wy, wz`` are ``(n, 4)``, ``wq`` is ``(n,)``.  Returns the
    64 accumulated rhocell entries of the cell, ``(i, j, k)`` row-major.
    """
    wx = np.atleast_2d(np.asarray(wx, dtype=np.float64))
    wy = np.atleast_2d(np.asarray(wy, dtype=np.float64))
    wz = np.atleast_2d(np.asarray(wz, dtype=np.float64))
    wq = np.atleast_1d(np.asarray(wq, dtype=np.float64))
    n = wx.shape[0]

    contrib = np.zeros(64)
    for start in range(0, n, 2):
        pair = slice(start, min(start + 2, n))
        count = pair.stop - pair.start
        pwx = np.zeros((2, 4))
        pwy = np.zeros((2, 4))
        pwz = np.zeros((2, 4))
        pwq = np.zeros(2)
        pwx[:count] = wx[pair]
        pwy[:count] = wy[pair]
        pwz[:count] = wz[pair]
        pwq[:count] = wq[pair]

        mpu.zero_tile()
        a, b = build_qsp_operands(pwx, pwy, pwq)
        mpu.mopa(a, b)
        tile = mpu.read_tile(8, 8)
        # per-particle 4x4 blocks of w * s_x_i * s_y_j
        for p in range(count):
            block = tile[4 * p: 4 * p + 4, 4 * p: 4 * p + 4]
            # VPU stage: multiply by the particle's four s_z factors and
            # accumulate into the 64-entry layout (i, j, k) row-major
            contrib += np.einsum("ij,k->ijk", block, pwz[p]).reshape(64)
    return contrib


def emulated_tile_rhocells(data, order_idx: np.ndarray, num_cells: int
                           ) -> Tuple[np.ndarray, Tuple[MatrixUnit, ...]]:
    """A staged tile's rhocells through the emulator: every occupied
    cell's particles, in processing order, go pair by pair through one
    unit per current component.

    ``data`` is a :class:`~repro.pic.deposition.base.TileDepositionData`
    of order 1 or 3.  Returns the ``(3, num_cells, S^3)`` rhocells (zero
    for empty cells) and the three units, whose counters hold the
    instructions each component's cells executed.
    """
    per_cell = deposit_cell_cic_mpu if data.order == 1 else deposit_cell_qsp_mpu
    cells = data.local_cell_ids[order_idx]
    units = (MatrixUnit(), MatrixUnit(), MatrixUnit())
    rhocells = np.zeros((3, num_cells, data.support**3))
    for cell in np.unique(cells):
        rows = order_idx[cells == cell]
        for component, (unit, wq) in enumerate(
                zip(units, (data.wqx, data.wqy, data.wqz))):
            rhocells[component, cell] = per_cell(
                unit, data.wx[rows], data.wy[rows], data.wz[rows], wq[rows])
    return rhocells, units
