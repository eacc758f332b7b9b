"""Particle-in-Cell simulation substrate.

This subpackage plays the role WarpX plays in the paper: it provides the
grid, particle storage, shape functions, particle pusher, field gather,
reference deposition kernels, Maxwell solvers, boundaries, laser injection,
moving window and the deposition seam that the Matrix-PIC deposition
framework (:mod:`repro.core`) plugs into; :class:`repro.api.Session`
assembles them into a run.
"""

from repro.pic.grid import Grid
from repro.pic.particles import ParticleContainer, ParticleTile
from repro.pic.shapes import shape_factors, shape_support

__all__ = [
    "Grid",
    "ParticleContainer",
    "ParticleTile",
    "shape_factors",
    "shape_support",
]
