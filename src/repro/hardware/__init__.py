"""Simulated hybrid VPU/MPU CPU substrate.

The paper evaluates on a pre-release LX2 CPU whose cores combine a 512-bit
FP64 Vector Processing Unit (VPU) with a Matrix Processing Unit (MPU) that
executes 8x8 FP64 outer-product-accumulate (MOPA) instructions at roughly
four times the VPU's FLOP rate (§5.1).  That hardware is not available, so
this subpackage provides:

* :class:`~repro.hardware.counters.KernelCounters` — per-phase instruction
  and byte counters that every kernel implementation feeds,
* :class:`~repro.hardware.cost_model.CostModel` — an analytic model that
  converts counters into modelled seconds using the LX2 architecture
  parameters.

Neither unit is simulated: kernels charge their vector and MOPA work to
the counters directly.  The functional model of the MPU tile register,
driven pair by pair as Algorithm 2 describes, is the test oracle
``tests/mpu_oracles.py`` that the production Stage 2 is held to.
Performance numbers flow through the cost model, so the paper ledger
(``tests/test_paper_ledger.py``) holds the model to the paper's results
without depending on Python interpreter speed.
"""

from repro.hardware.counters import KernelCounters, PhaseCounters
from repro.hardware.cost_model import CostModel, KernelTiming
from repro.hardware.spec import LX2_SPEC, ArchSpec

__all__ = [
    "ArchSpec",
    "LX2_SPEC",
    "KernelCounters",
    "PhaseCounters",
    "CostModel",
    "KernelTiming",
]
