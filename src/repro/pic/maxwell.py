"""Finite-difference time-domain Maxwell solver.

One explicit solver, the paper's (§5.2 runs CKC with ``warpx.cfl =
1.0``): the Cole-Karkkainen-Cowan scheme, a leap-frog update that smooths
the transverse profile of each spatial derivative so that it stays stable
at a CFL number of 1 along the axis of propagation.

All field arrays share the grid's ``(nx, ny, nz)`` shape; Yee staggering is
implicit (``ex[i, j, k]`` lives at ``(i + 1/2, j, k)`` and so on) and the
finite differences are evaluated with periodic wrap.  Non-periodic axes
are handled afterwards by :mod:`repro.pic.boundary`.

Every derivative, smoothing and curl is a plain temporary array computed
in the historical per-element operation order, so the decomposed solve
(:mod:`repro.domain`, this solver on halo-padded slabs) stays bitwise equal
to the global one.
"""

from __future__ import annotations

import numpy as np

from repro import constants
from repro.pic.grid import Grid
from repro.pic.stencil import Array


def _roll(src: Array, shift: int, axis: int) -> Array:
    """``np.roll(src, shift, axis)`` as two contiguous block copies.

    About half the cost of ``np.roll`` on the solver's grids, which CKC
    rolls some two hundred times a step.
    """
    n = src.shape[axis]
    s = shift % n
    lead = (slice(None),) * axis
    out = np.empty_like(src)
    out[lead + (slice(0, s),)] = src[lead + (slice(n - s, None),)]
    out[lead + (slice(s, None),)] = src[lead + (slice(0, n - s),)]
    return out


def _diff(field: Array, axis: int, delta: float, forward: bool) -> Array:
    """One-sided finite difference along ``axis`` with periodic wrap."""
    if forward:
        return (_roll(field, -1, axis) - field) / delta
    return (field - _roll(field, 1, axis)) / delta


def _transverse_smooth(field: Array, axis: int,
                       alpha: float, beta: float, gamma: float) -> Array:
    """CKC transverse smoothing applied to a derivative along ``axis``.

    The derivative along ``axis`` is averaged over the 3x3 transverse
    neighbourhood with weights ``alpha`` (centre), ``beta`` (the four edge
    neighbours) and ``gamma`` (the four corner neighbours).  With the Cowan
    coefficients the weights sum to one, so the scheme reduces to Yee when
    ``beta = gamma = 0``.
    """
    axes = [a for a in range(3) if a != axis]
    result = field * alpha
    for t in axes:
        result += (_roll(field, 1, t) + _roll(field, -1, t)) * beta
    a, b = axes
    for sa in (1, -1):
        shifted = _roll(field, sa, a)
        for sb in (1, -1):
            result += _roll(shifted, sb, b) * gamma
    return result


class FDTDSolver:
    """Explicit leap-frog CKC solver for Maxwell's equations on the grid."""

    def __init__(self, grid: Grid):
        self.grid = grid
        # Cole-Karkkainen-Cowan coefficients for cubic cells
        self.alpha, self.beta, self.gamma = 7.0 / 12.0, 1.0 / 12.0, 1.0 / 48.0

    # ------------------------------------------------------------------
    def _curl_e(self) -> tuple[Array, Array, Array]:
        """Curl of E evaluated at the B locations (forward differences)."""
        g = self.grid
        dx, dy, dz = g.cell_size
        return (self._d(g.ez, 1, dy, True) - self._d(g.ey, 2, dz, True),
                self._d(g.ex, 2, dz, True) - self._d(g.ez, 0, dx, True),
                self._d(g.ey, 0, dx, True) - self._d(g.ex, 1, dy, True))

    def _curl_b(self) -> tuple[Array, Array, Array]:
        """Curl of B evaluated at the E locations (backward differences)."""
        g = self.grid
        dx, dy, dz = g.cell_size
        return (self._d(g.bz, 1, dy, False) - self._d(g.by, 2, dz, False),
                self._d(g.bx, 2, dz, False) - self._d(g.bz, 0, dx, False),
                self._d(g.by, 0, dx, False) - self._d(g.bx, 1, dy, False))

    def _d(self, field: Array, axis: int, delta: float, forward: bool
           ) -> Array:
        return _transverse_smooth(_diff(field, axis, delta, forward), axis,
                                  self.alpha, self.beta, self.gamma)

    # ------------------------------------------------------------------
    def push_b(self, dt: float) -> None:
        """Advance B by ``dt`` using Faraday's law (dB/dt = -curl E)."""
        g = self.grid
        for curl, target in zip(self._curl_e(), (g.bx, g.by, g.bz)):
            target -= curl * dt

    def push_e(self, dt: float) -> None:
        """Advance E by ``dt`` using Ampere's law with the deposited current."""
        g = self.grid
        c2 = constants.C_LIGHT**2
        inv_eps0 = 1.0 / constants.EPSILON_0
        for curl, current, target in zip(self._curl_b(),
                                         (g.jx, g.jy, g.jz),
                                         (g.ex, g.ey, g.ez)):
            target += (curl * c2 - current * inv_eps0) * dt

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
    the global solver).
    """

    name = "solve"
    bucket = "field_solve"
    reads = frozenset({
        "grid.fields", "grid.currents", "solver",
        "domain.solvers", "dt", "executor", "telemetry",
    })
    writes = frozenset({"grid.fields", "telemetry"})

    def run(self, session) -> None:
        if session.domain is not None:
            session.domain.solve(session.grid, session.dt, session.executor)
        else:
            session.solver.step(session.dt)
