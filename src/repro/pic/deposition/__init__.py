"""Current-deposition kernels of the PIC substrate.

This package contains the *non-MPU* kernels:

* :mod:`repro.pic.deposition.reference` — an uninstrumented NumPy
  scatter-add used as the numerical ground truth and as the fast path of
  the simulation loop,
* :mod:`repro.pic.deposition.baseline` — the WarpX-style direct deposition
  baseline, instrumented for the cost model,
* :mod:`repro.pic.deposition.rhocell` — the Vincenti et al. rhocell kernel
  in its compiler-auto-vectorised and hand-tuned VPU variants.

The MPU/hybrid kernel — the paper's contribution — lives in
:mod:`repro.core`.
"""

from repro.pic.deposition.base import (
    DepositionKernel,
    TileDepositionData,
    cell_switch_fraction,
    effective_deposition_flops,
    prepare_tile_data,
)
from repro.pic.deposition.baseline import BaselineDeposition
from repro.pic.deposition.reference import deposit_reference, deposit_rho_reference
from repro.pic.deposition.rhocell import RhocellDeposition

__all__ = [
    "DepositionKernel",
    "TileDepositionData",
    "prepare_tile_data",
    "cell_switch_fraction",
    "effective_deposition_flops",
    "BaselineDeposition",
    "RhocellDeposition",
    "deposit_reference",
    "deposit_rho_reference",
]
