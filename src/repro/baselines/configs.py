"""Named evaluation configurations of the paper's §6.

Every configuration is a :class:`~repro.core.framework.MatrixPICDeposition`
strategy combining one deposition kernel with one sorting mode:

===========================  ==============================  ==================
Configuration                Kernel                          Sorting
===========================  ==============================  ==================
Baseline                     WarpX direct (auto-vec)         none
Baseline+IncrSort            WarpX direct (auto-vec)         incremental
Rhocell                      rhocell, auto-vectorised        none
Rhocell+IncrSort             rhocell, auto-vectorised        incremental
Rhocell+IncrSort (VPU)       rhocell, hand-tuned VPU         incremental
Matrix-only                  MPU arithmetic, naive staging   none
Hybrid-noSort                hybrid VPU-MPU                  none
Hybrid-GlobalSort            hybrid VPU-MPU                  global every step
MatrixPIC (FullOpt)          hybrid VPU-MPU                  incremental + policy
===========================  ==============================  ==================

The first block (ablation study, Figure 10) and the second block
(comparative study, Tables 1 and 2) are exposed as ordered name lists so
the paper ledger (``tests/test_paper_ledger.py``) and the examples can
iterate them in the paper's order.
"""

from __future__ import annotations

from typing import Tuple, Type

from repro.core.framework import (
    MatrixPICDeposition,
    SORT_GLOBAL_EVERY_STEP,
    SORT_INCREMENTAL,
    SORT_NONE,
)
from repro.core.hybrid_kernel import HybridMPUDeposition
from repro.pic.deposition.base import DepositionKernel
from repro.pic.deposition.baseline import BaselineDeposition
from repro.pic.deposition.rhocell import RhocellDeposition

#: Ablation study configurations (Figure 10), in the paper's order.
ABLATION_CONFIGS: Tuple[str, ...] = (
    "Baseline",
    "Matrix-only",
    "Hybrid-noSort",
    "Hybrid-GlobalSort",
    "MatrixPIC (FullOpt)",
)

#: First-order comparative study configurations (Table 1).
CIC_COMPARISON_CONFIGS: Tuple[str, ...] = (
    "Baseline",
    "Baseline+IncrSort",
    "Rhocell",
    "Rhocell+IncrSort",
    "Rhocell+IncrSort (VPU)",
    "MatrixPIC (FullOpt)",
)

#: Third-order comparative study configurations (Table 2).
QSP_COMPARISON_CONFIGS: Tuple[str, ...] = (
    "Baseline",
    "Baseline+IncrSort",
    "Rhocell+IncrSort (VPU)",
    "MatrixPIC (FullOpt)",
)

#: every configuration: name -> (kernel class, kernel arguments, sorting
#: mode), in the order :func:`available_configurations` lists them
_CONFIGURATIONS = {
    "Baseline": (BaselineDeposition, dict(), SORT_NONE),
    "Baseline+IncrSort": (BaselineDeposition, dict(), SORT_INCREMENTAL),
    "Rhocell": (RhocellDeposition, dict(hand_tuned=False), SORT_NONE),
    "Rhocell+IncrSort": (RhocellDeposition, dict(hand_tuned=False),
                         SORT_INCREMENTAL),
    "Rhocell+IncrSort (VPU)": (RhocellDeposition, dict(hand_tuned=True),
                               SORT_INCREMENTAL),
    "Matrix-only": (HybridMPUDeposition, dict(mode="matrix_only"), SORT_NONE),
    "Hybrid-noSort": (HybridMPUDeposition, dict(mode="hybrid"), SORT_NONE),
    "Hybrid-GlobalSort": (HybridMPUDeposition, dict(mode="hybrid"),
                          SORT_GLOBAL_EVERY_STEP),
    "MatrixPIC (FullOpt)": (HybridMPUDeposition, dict(mode="hybrid"),
                            SORT_INCREMENTAL),
}


def available_configurations() -> Tuple[str, ...]:
    """Names accepted by :func:`make_strategy`."""
    return tuple(_CONFIGURATIONS)


def configuration_kernel(name: str) -> Type[DepositionKernel]:
    """The deposition kernel class configuration ``name`` runs, without
    building it (its ``shape_orders`` say which orders the name takes)."""
    return _CONFIGURATIONS[name][0]


def make_strategy(name: str) -> MatrixPICDeposition:
    """Build the named deposition strategy (one of
    :func:`available_configurations`); its adaptive sorting policy is
    the paper's Appendix-A one (:mod:`repro.core.sort_policy`)."""
    if name not in _CONFIGURATIONS:
        raise ValueError(
            f"unknown configuration {name!r}; expected one of "
            f"{available_configurations()}")
    kernel, kernel_args, sort_mode = _CONFIGURATIONS[name]
    return MatrixPICDeposition(
        kernel=kernel(**kernel_args), sort_mode=sort_mode, name=name)
