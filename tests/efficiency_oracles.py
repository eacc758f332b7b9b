"""Table 3's efficiency arithmetic and its GPU comparator.

The paper's Table 3 compares the percentage of theoretical FP64 peak the
deposition kernel reaches across platforms.  Only the paper ledger
(``tests/test_paper_ledger.py``) reads these numbers, so the arithmetic
and the A800 model live here, beside it, and nowhere under ``src/``.

The GPU reference is the WarpX CUDA kernel on a data-centre A800.  That
hardware is not available, so :class:`GPUDepositionModel` models the
CUDA kernel analytically:

* the kernel is a scatter-add of ``S^3`` nodal values per particle into
  global memory through ``atomicAdd`` (the paper notes that tensor cores
  cannot be used for this access pattern, §2.3),
* its throughput is therefore bounded by the minimum of the FP64 pipeline,
  the HBM read-modify-write bandwidth and the atomic throughput of the L2
  slices, degraded by the conflict rate implied by the particles-per-cell
  density,
* the *effective* work credited is the same canonical per-particle FLOP
  count used for the CPU kernels.

With the default parameters the model lands at roughly 30 % of peak for the
QSP kernel at PPC = 512 — matching the 29.76 % the paper measures — and the
value responds in the expected direction when density or conflict behaviour
changes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.cost_model import CostModel, KernelTiming
from repro.hardware.spec import ArchSpec
from repro.pic.deposition.base import effective_deposition_flops
from repro.pic.shapes import shape_support

#: NVIDIA A800 SXM used for the Table 3 comparison.  The "core" here is one
#: SM; the CUDA deposition kernel is modelled by :class:`GPUDepositionModel`,
#: this spec only provides the peak FP64 rate and memory bandwidth.
A800_SPEC = ArchSpec(
    name="A800",
    frequency_hz=1.41e9,
    vpu_lanes=32,           # one FP64 warp-half per cycle per SM partition
    mpu_tile_rows=0,        # tensor cores are not usable for scatter-add PIC
    mpu_tile_cols=0,
    vpu_cycles_per_op=1.0,
    mpu_cycles_per_mopa=1.0,
    gather_scatter_penalty=2.0,
    scalar_cycles_per_op=1.0,
    atomic_cycles=4.0,
    atomic_conflict_cycles=32.0,
    bytes_per_cycle_near=128.0,
    bytes_per_cycle_far=16.0,
    tile_move_cycles=4.0,
    cores=108,
)


def vpu_flops_per_cycle(spec: ArchSpec) -> float:
    """FP64 FLOPs per cycle of the VPU path (FMA counts as 2 FLOPs)."""
    return 2.0 * spec.vpu_lanes / spec.vpu_cycles_per_op


def mpu_flops_per_cycle(spec: ArchSpec) -> float:
    """FP64 FLOPs per cycle of the MOPA path (0 when no MPU exists)."""
    if spec.mpu_tile_rows == 0 or spec.mpu_tile_cols == 0:
        return 0.0
    fma_per_mopa = spec.mpu_tile_rows * spec.mpu_tile_cols
    return 2.0 * fma_per_mopa / spec.mpu_cycles_per_mopa


def peak_efficiency(cost_model: CostModel, timing: KernelTiming,
                    reference: str = "vpu") -> float:
    """Fraction of theoretical peak FP64 achieved (Table 3 metric).

    The numerator is the *effective* work — the FLOPs of the canonical
    scalar deposition algorithm — while the denominator charges the full
    modelled kernel time against the hardware's peak rate, exactly the
    methodology of §5.2.2 (credit only essential work, penalise every
    overhead).

    ``reference`` selects the peak used in the denominator: ``"vpu"``
    (default) uses the conventional FP64 SIMD peak, which is how the
    paper's Table 3 is normalised (its MatrixPIC entry exceeds what a
    VPU-only kernel could reach but stays below 100 % of the MLA peak);
    ``"max"`` uses the fastest path available (the MOPA peak on the LX2).
    """
    if timing.total <= 0.0:
        return 0.0
    spec = cost_model.spec
    if reference == "vpu":
        per_cycle = vpu_flops_per_cycle(spec)
    elif reference == "max":
        per_cycle = max(vpu_flops_per_cycle(spec), mpu_flops_per_cycle(spec))
    else:
        raise ValueError(f"unknown peak reference {reference!r}")
    peak = per_cycle * spec.frequency_hz * cost_model.parallel_cores
    return timing.effective_flops / (timing.total * peak)


@dataclass(frozen=True)
class GPUModelParameters:
    """Tunable throughput parameters of the CUDA deposition model."""

    #: theoretical FP64 peak of the device [FLOP/s] (A800 SXM: 9.7 TFLOP/s)
    peak_fp64_flops: float = 9.7e12
    #: HBM2e bandwidth [bytes/s]
    memory_bandwidth: float = 1.55e12
    #: sustained atomicAdd throughput of the shared-memory/L2 path
    #: [updates/s]; WarpX accumulates per-block in shared memory, so the
    #: grid read-modify-write traffic largely stays on chip
    atomic_throughput: float = 4.0e12
    #: serialisation factor applied per additional particle sharing a cell
    #: within a warp (write conflicts of Figure 2)
    conflict_slowdown_per_ppc: float = 0.004
    #: fraction of the arithmetic the compiler maps to FMA pipelines
    arithmetic_efficiency: float = 0.75


class GPUDepositionModel:
    """Roofline-style model of WarpX's CUDA current deposition."""

    def __init__(self, spec: ArchSpec = A800_SPEC,
                 params: GPUModelParameters | None = None):
        self.spec = spec
        self.params = params if params is not None else GPUModelParameters()

    def kernel_seconds(self, num_particles: int, order: int,
                       particles_per_cell: float) -> float:
        """Modelled kernel time for one deposition pass [s]."""
        if num_particles <= 0:
            return 0.0
        p = self.params
        nodes = shape_support(order) ** 3

        # arithmetic: shape factors plus the nodal multiply-accumulate chain
        flops = num_particles * effective_deposition_flops(order) / p.arithmetic_efficiency
        t_arith = flops / p.peak_fp64_flops

        # memory: particle record streaming (the grid read-modify-write is
        # absorbed by the per-block shared-memory accumulation)
        bytes_moved = num_particles * (7 * 8 + nodes * 3 * 8 * 0.1)
        t_mem = bytes_moved / p.memory_bandwidth

        # atomics: every nodal update is an atomicAdd; conflicts grow with
        # the number of particles sharing a cell inside a warp
        updates = num_particles * nodes * 3
        conflict_factor = 1.0 + p.conflict_slowdown_per_ppc * max(particles_per_cell, 1.0)
        t_atomic = updates * conflict_factor / p.atomic_throughput

        return max(t_arith, t_mem, t_atomic)

    def peak_efficiency(self, num_particles: int, order: int,
                        particles_per_cell: float) -> float:
        """Fraction of theoretical FP64 peak achieved (Table 3 metric)."""
        seconds = self.kernel_seconds(num_particles, order, particles_per_cell)
        if seconds <= 0.0:
            return 0.0
        effective = num_particles * effective_deposition_flops(order)
        return effective / (seconds * self.params.peak_fp64_flops)

    def throughput(self, num_particles: int, order: int,
                   particles_per_cell: float) -> float:
        """Particles deposited per second."""
        seconds = self.kernel_seconds(num_particles, order, particles_per_cell)
        if seconds <= 0.0:
            return 0.0
        return num_particles / seconds
