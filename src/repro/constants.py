"""Physical constants and plasma-parameter helpers (SI units).

The values follow CODATA-2018 to the precision needed for a PIC code.  The
helpers convert between plasma density and the derived quantities that the
workloads in the paper are specified with (plasma frequency, skin depth,
laser strength parameter).
"""

from __future__ import annotations

import math

# --- fundamental constants -------------------------------------------------
C_LIGHT = 299_792_458.0  #: speed of light in vacuum [m/s]
MU_0 = 4.0e-7 * math.pi  #: vacuum permeability [H/m]
EPSILON_0 = 1.0 / (MU_0 * C_LIGHT**2)  #: vacuum permittivity [F/m]
Q_ELECTRON = -1.602_176_634e-19  #: electron charge [C]
Q_PROTON = 1.602_176_634e-19  #: proton charge [C]
M_ELECTRON = 9.109_383_7015e-31  #: electron mass [kg]
M_PROTON = 1.672_621_923_69e-27  #: proton mass [kg]
K_BOLTZMANN = 1.380_649e-23  #: Boltzmann constant [J/K]


def plasma_frequency(density: float) -> float:
    """Electron angular plasma frequency ``omega_p`` [rad/s] at a number
    density in particles per cubic metre."""
    if density < 0.0:
        raise ValueError(f"density must be non-negative, got {density}")
    return math.sqrt(density * Q_ELECTRON**2 / (M_ELECTRON * EPSILON_0))


def plasma_wavelength(density: float) -> float:
    """Plasma wavelength ``lambda_p = 2 pi c / omega_p`` [m]."""
    omega = plasma_frequency(density)
    if omega == 0.0:
        raise ValueError("plasma wavelength is undefined for zero density")
    return 2.0 * math.pi * C_LIGHT / omega


def skin_depth(density: float) -> float:
    """Collisionless electron skin depth ``c / omega_p`` [m]."""
    omega = plasma_frequency(density)
    if omega == 0.0:
        raise ValueError("skin depth is undefined for zero density")
    return C_LIGHT / omega


def laser_a0_to_field(a0: float, wavelength: float) -> float:
    """Peak electric field [V/m] of a laser with strength parameter ``a0``."""
    if wavelength <= 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    omega = 2.0 * math.pi * C_LIGHT / wavelength
    return a0 * M_ELECTRON * C_LIGHT * omega / Q_PROTON

