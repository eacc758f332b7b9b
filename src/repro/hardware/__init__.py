"""Simulated hybrid VPU/MPU CPU substrate.

The paper evaluates on a pre-release LX2 CPU whose cores combine a 512-bit
FP64 Vector Processing Unit (VPU) with a Matrix Processing Unit (MPU) that
executes 8x8 FP64 outer-product-accumulate (MOPA) instructions at roughly
four times the VPU's FLOP rate (§5.1).  That hardware is not available, so
this subpackage provides:

* :class:`~repro.hardware.mpu.MatrixUnit` — a functional simulator of the
  MPU tile register and its MOPA instruction,
* :class:`~repro.hardware.counters.KernelCounters` — per-phase instruction
  and byte counters that every kernel implementation feeds,
* :class:`~repro.hardware.cost_model.CostModel` — an analytic model that
  converts counters into modelled seconds using the LX2 (or A800)
  architecture parameters.

The MPU simulator is the executable statement of the paper's mapping
(``deposit_cell_*_mpu`` drive it pair by pair); the VPU is not simulated —
kernels charge their vector work to the counters directly.  Performance
numbers flow through the cost model, so the benchmark harnesses reproduce
the *shape* of the paper's results without depending on Python
interpreter speed.
"""

from repro.hardware.counters import KernelCounters, PhaseCounters
from repro.hardware.cost_model import CostModel, KernelTiming
from repro.hardware.mpu import MatrixUnit
from repro.hardware.spec import A800_SPEC, LX2_SPEC, ArchSpec

__all__ = [
    "ArchSpec",
    "LX2_SPEC",
    "A800_SPEC",
    "MatrixUnit",
    "KernelCounters",
    "PhaseCounters",
    "CostModel",
    "KernelTiming",
]
