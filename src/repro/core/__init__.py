"""Matrix-PIC core: the paper's contribution.

* :mod:`repro.core.gpma` — the Gapped Packed Memory Array that keeps each
  tile's particle indices sorted by cell with O(1) amortised updates,
* :mod:`repro.core.counting_sort` — the counting-sort global reorder,
* :mod:`repro.core.incremental_sort` — Phase 1 of Algorithm 1: detecting
  moved particles and applying the pending moves to the GPMA,
* :mod:`repro.core.sort_policy` — the five-trigger adaptive global
  re-sorting policy of §4.4,
* :mod:`repro.core.mpu_deposit` — the outer-product formulation of current
  deposition (§4.2.1) for the CIC and QSP schemes,
* :mod:`repro.core.hybrid_kernel` — the three-stage hybrid VPU-MPU kernel
  (Algorithm 2),
* :mod:`repro.core.framework` — the :class:`MatrixPICDeposition` strategy
  that plugs the whole framework into the PIC loop (Algorithm 1).
"""

from repro.core.counting_sort import counting_sort_permutation
from repro.core.framework import MatrixPICDeposition
from repro.core.gpma import GappedPMA
from repro.core.hybrid_kernel import HybridMPUDeposition
from repro.core.incremental_sort import IncrementalSorter
from repro.core.mpu_deposit import (
    build_cic_operands,
    build_qsp_operands,
    deposit_cell_cic_mpu,
    deposit_cell_qsp_mpu,
)
from repro.core.sort_policy import GlobalSortPolicy, RankSortStats

__all__ = [
    "GappedPMA",
    "counting_sort_permutation",
    "IncrementalSorter",
    "GlobalSortPolicy",
    "RankSortStats",
    "build_cic_operands",
    "build_qsp_operands",
    "deposit_cell_cic_mpu",
    "deposit_cell_qsp_mpu",
    "HybridMPUDeposition",
    "MatrixPICDeposition",
]
