"""The array annotation the numerical layers share.

This module is the dependency root of :mod:`repro.backend`: it imports
nothing from the rest of the library (mirroring ``repro.exec.base``), so
the kernel modules can annotate with :data:`Array` without a cycle.
"""

from __future__ import annotations

import numpy as np

#: Annotation alias for the dense arrays the numerical layers exchange.
Array = np.ndarray
