"""Finite-difference time-domain Maxwell solvers.

Two explicit solvers are provided, matching the paper's setup (§5.2 uses
the CKC solver with ``warpx.cfl = 1.0``):

* ``yee`` — the standard Yee leap-frog scheme,
* ``ckc`` — the Cole-Karkkainen-Cowan scheme, which smooths the transverse
  profile of each spatial derivative so that the scheme stays stable at a
  CFL number of 1 along the axis of propagation.

All field arrays share the grid's ``(nx, ny, nz)`` shape; Yee staggering is
implicit (``ex[i, j, k]`` lives at ``(i + 1/2, j, k)`` and so on) and the
finite differences are evaluated with periodic wrap.  Non-periodic axes
are handled afterwards by :mod:`repro.pic.boundary`.

Memory discipline: the historical implementation allocated a fresh
full-grid temporary for every ``np.roll`` and every intermediate of the
CKC smoothing — dozens of dense arrays per step.  All temporaries are now
leased from the process-wide :data:`repro.pic.grid.scratch_arrays` pool
and every update is expressed through explicit out-parameter ufunc calls
whose per-element operation sequence is **identical** to the historical
expressions, so the refactor is bitwise-neutral.  The domain-decomposed
step (:mod:`repro.domain`) runs this same solver on halo-padded local
slabs, which is what makes the decomposed field solve bitwise identical
to the global one.
"""

from __future__ import annotations

import numpy as np

from repro import constants
from repro.backend import Array
from repro.pic.grid import Grid, scratch_arrays


def _roll_into(src: Array, shift: int, axis: int, out: Array) -> Array:
    """``np.roll(src, shift, axis)`` materialised into ``out``.

    Two contiguous block copies — memcpy-bound, so plain NumPy on every
    kernel tier.
    """
    n = src.shape[axis]
    s = shift % n
    if s == 0:
        out[...] = src
        return out
    head = [slice(None)] * src.ndim
    tail = [slice(None)] * src.ndim
    head[axis] = slice(0, s)
    tail[axis] = slice(s, None)
    src_tail = [slice(None)] * src.ndim
    src_head = [slice(None)] * src.ndim
    src_tail[axis] = slice(n - s, None)
    src_head[axis] = slice(0, n - s)
    out[tuple(head)] = src[tuple(src_tail)]
    out[tuple(tail)] = src[tuple(src_head)]
    return out


def _diff(field: Array, axis: int, delta: float, forward: bool) -> Array:
    """One-sided finite difference along ``axis`` with periodic wrap.

    Returns a *leased* scratch array; the caller owns the lease.
    """
    out = scratch_arrays.acquire(field.shape)
    if forward:
        _roll_into(field, -1, axis, out)
        np.subtract(out, field, out=out)
    else:
        _roll_into(field, 1, axis, out)
        np.subtract(field, out, out=out)
    np.divide(out, delta, out=out)
    return out


def _transverse_smooth(field: Array, axis: int,
                       alpha: float, beta: float, gamma: float) -> Array:
    """CKC transverse smoothing applied to a derivative along ``axis``.

    The derivative along ``axis`` is averaged over the 3x3 transverse
    neighbourhood with weights ``alpha`` (centre), ``beta`` (the four edge
    neighbours) and ``gamma`` (the four corner neighbours).  With the Cowan
    coefficients the weights sum to one, so the scheme reduces to Yee when
    ``beta = gamma = 0``.

    Returns a *leased* scratch array; ``field`` is left untouched.
    """
    axes = [a for a in range(3) if a != axis]
    result = scratch_arrays.acquire(field.shape)
    tmp_a = scratch_arrays.acquire(field.shape)
    tmp_b = scratch_arrays.acquire(field.shape)
    try:
        np.multiply(field, alpha, out=result)
        for t in axes:
            _roll_into(field, 1, t, tmp_a)
            _roll_into(field, -1, t, tmp_b)
            np.add(tmp_a, tmp_b, out=tmp_a)
            np.multiply(tmp_a, beta, out=tmp_a)
            np.add(result, tmp_a, out=result)
        a, b = axes
        for sa in (1, -1):
            _roll_into(field, sa, a, tmp_a)
            for sb in (1, -1):
                _roll_into(tmp_a, sb, b, tmp_b)
                np.multiply(tmp_b, gamma, out=tmp_b)
                np.add(result, tmp_b, out=result)
    finally:
        scratch_arrays.release(tmp_a)
        scratch_arrays.release(tmp_b)
    return result


class FDTDSolver:
    """Explicit leap-frog solver for Maxwell's equations on the grid."""

    def __init__(self, grid: Grid, scheme: str = "ckc"):
        if scheme not in ("yee", "ckc"):
            raise ValueError(f"unknown scheme {scheme!r}")
        self.grid = grid
        self.scheme = scheme
        if scheme == "ckc":
            # Cole-Karkkainen-Cowan coefficients for cubic cells
            self.alpha, self.beta, self.gamma = 7.0 / 12.0, 1.0 / 12.0, 1.0 / 48.0
        else:
            self.alpha, self.beta, self.gamma = 1.0, 0.0, 0.0

    # ------------------------------------------------------------------
    def _curl_e(self) -> tuple[Array, Array, Array]:
        """Curl of E evaluated at the B locations (forward differences).

        Returns three leased scratch arrays (the caller releases them).
        """
        g = self.grid
        dx, dy, dz = g.cell_size
        dez_dy = self._d(g.ez, 1, dy, forward=True)
        dey_dz = self._d(g.ey, 2, dz, forward=True)
        dex_dz = self._d(g.ex, 2, dz, forward=True)
        dez_dx = self._d(g.ez, 0, dx, forward=True)
        dey_dx = self._d(g.ey, 0, dx, forward=True)
        dex_dy = self._d(g.ex, 1, dy, forward=True)
        np.subtract(dez_dy, dey_dz, out=dez_dy)
        np.subtract(dex_dz, dez_dx, out=dex_dz)
        np.subtract(dey_dx, dex_dy, out=dey_dx)
        for leased in (dey_dz, dez_dx, dex_dy):
            scratch_arrays.release(leased)
        return dez_dy, dex_dz, dey_dx

    def _curl_b(self) -> tuple[Array, Array, Array]:
        """Curl of B evaluated at the E locations (backward differences).

        Returns three leased scratch arrays (the caller releases them).
        """
        g = self.grid
        dx, dy, dz = g.cell_size
        dbz_dy = self._d(g.bz, 1, dy, forward=False)
        dby_dz = self._d(g.by, 2, dz, forward=False)
        dbx_dz = self._d(g.bx, 2, dz, forward=False)
        dbz_dx = self._d(g.bz, 0, dx, forward=False)
        dby_dx = self._d(g.by, 0, dx, forward=False)
        dbx_dy = self._d(g.bx, 1, dy, forward=False)
        np.subtract(dbz_dy, dby_dz, out=dbz_dy)
        np.subtract(dbx_dz, dbz_dx, out=dbx_dz)
        np.subtract(dby_dx, dbx_dy, out=dby_dx)
        for leased in (dby_dz, dbz_dx, dbx_dy):
            scratch_arrays.release(leased)
        return dbz_dy, dbx_dz, dby_dx

    def _d(self, field: Array, axis: int, delta: float, forward: bool
           ) -> Array:
        diff = _diff(field, axis, delta, forward)
        if self.scheme == "ckc":
            smoothed = _transverse_smooth(diff, axis, self.alpha, self.beta,
                                          self.gamma)
            scratch_arrays.release(diff)
            return smoothed
        return diff

    # ------------------------------------------------------------------
    def push_b(self, dt: float) -> None:
        """Advance B by ``dt`` using Faraday's law (dB/dt = -curl E)."""
        cx, cy, cz = self._curl_e()
        g = self.grid
        for curl, target in ((cx, g.bx), (cy, g.by), (cz, g.bz)):
            np.multiply(curl, dt, out=curl)
            np.subtract(target, curl, out=target)
            scratch_arrays.release(curl)

    def push_e(self, dt: float) -> None:
        """Advance E by ``dt`` using Ampere's law with the deposited current."""
        cx, cy, cz = self._curl_b()
        g = self.grid
        c2 = constants.C_LIGHT**2
        inv_eps0 = 1.0 / constants.EPSILON_0
        tmp = scratch_arrays.acquire(g.ex.shape)
        try:
            for curl, current, target in ((cx, g.jx, g.ex), (cy, g.jy, g.ey),
                                          (cz, g.jz, g.ez)):
                np.multiply(curl, c2, out=curl)
                np.multiply(current, inv_eps0, out=tmp)
                np.subtract(curl, tmp, out=curl)
                np.multiply(curl, dt, out=curl)
                np.add(target, curl, out=target)
                scratch_arrays.release(curl)
        finally:
            scratch_arrays.release(tmp)

    def step(self, dt: float) -> None:
        """One full leap-frog field update (B half, E full, B half)."""
        self.push_b(0.5 * dt)
        self.push_e(dt)
        self.push_b(0.5 * dt)


class FieldSolveStage:
    """Pipeline stage: one leap-frog FDTD update of the frame grid.

    The one stage a decomposed run does differently: with a domain
    runtime attached, the update runs per subdomain slab
    (:meth:`repro.domain.runtime.DomainRuntime.solve`, bitwise equal to
    the global solver).  No-op when the simulation was configured with
    ``field_solver="none"`` (kernel-only studies).
    """

    name = "solve"
    bucket = "field_solve"
    reads = frozenset({
        "grid.fields", "grid.currents", "solver",
        "domain.solvers", "dt", "executor", "telemetry",
    })
    writes = frozenset({"grid.fields", "telemetry"})

    def run(self, session) -> None:
        solver = session.solver
        if solver is None:
            return
        if session.domain is not None:
            session.domain.solve(session.grid, session.dt, session.executor)
        else:
            solver.step(session.dt)
