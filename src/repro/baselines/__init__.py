"""Evaluation configurations: ablation variants and VPU baselines.

:mod:`repro.baselines.configs` builds the named deposition strategies used
throughout §6 of the paper (Baseline, Baseline+IncrSort, Rhocell,
Rhocell+IncrSort, Rhocell+IncrSort (VPU), Matrix-only, Hybrid-noSort,
Hybrid-GlobalSort, MatrixPIC/FullOpt).  The analytic model of the WarpX
CUDA kernel on an NVIDIA A800 that Table 3 compares against is a test
comparator (``tests/efficiency_oracles.py``), read by the paper ledger.
"""

from repro.baselines.configs import (
    ABLATION_CONFIGS,
    CIC_COMPARISON_CONFIGS,
    QSP_COMPARISON_CONFIGS,
    available_configurations,
    make_strategy,
)

__all__ = [
    "make_strategy",
    "available_configurations",
    "ABLATION_CONFIGS",
    "CIC_COMPARISON_CONFIGS",
    "QSP_COMPARISON_CONFIGS",
]
