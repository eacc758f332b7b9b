"""Architecture specifications used by the cost model.

Two architectures are described:

* ``LX2_SPEC`` — the MPU-equipped CPU of the paper's LS pilot system
  (§5.1): >256 cores per package, 512-bit FP64 VPUs, 8x8 FP64 MPU tiles
  whose MOPA instruction delivers roughly 4x the VPU MLA FLOP rate,
  operating at 1.3 GHz.
* ``A800_SPEC`` — the data-centre GPU used for the cross-platform
  comparison in Table 3 (A800 = bandwidth-limited A100 variant, 80 GB
  HBM2e).

Values that the paper does not state explicitly (per-core bandwidth,
latencies) are set to representative numbers for the class of hardware and
are only used to shape relative costs; absolute seconds are not compared
against the paper.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ArchSpec:
    """Parameters of one execution platform used by :class:`CostModel`."""

    name: str
    frequency_hz: float
    #: FP64 SIMD lanes of one VPU (elements per vector instruction)
    vpu_lanes: int
    #: rows x cols of the MPU tile register (0 x 0 when the platform has none)
    mpu_tile_rows: int
    mpu_tile_cols: int
    #: throughput cost, in cycles, of one VPU instruction (FMA, mul, add ...)
    vpu_cycles_per_op: float
    #: throughput cost, in cycles, of one MOPA instruction
    mpu_cycles_per_mopa: float
    #: extra cycles for a strided/indexed VPU gather or scatter instruction
    gather_scatter_penalty: float
    #: cycles charged per scalar (non-vector) operation
    scalar_cycles_per_op: float
    #: cycles charged per atomic read-modify-write without contention
    atomic_cycles: float
    #: additional serialisation cycles per conflicting atomic update
    atomic_conflict_cycles: float
    #: bytes that one core can stream from cache/memory per cycle (hit path)
    bytes_per_cycle_near: float
    #: bytes per cycle when accesses miss to DRAM (locality-dependent path)
    bytes_per_cycle_far: float
    #: cycles to move the MPU tile register to/from VPU registers or memory
    tile_move_cycles: float
    cores: int = 1

    @property
    def vpu_flops_per_cycle(self) -> float:
        """FP64 FLOPs per cycle of the VPU path (FMA counts as 2 FLOPs)."""
        return 2.0 * self.vpu_lanes / self.vpu_cycles_per_op

    @property
    def mpu_flops_per_cycle(self) -> float:
        """FP64 FLOPs per cycle of the MOPA path (0 when no MPU exists)."""
        if self.mpu_tile_rows == 0 or self.mpu_tile_cols == 0:
            return 0.0
        fma_per_mopa = self.mpu_tile_rows * self.mpu_tile_cols
        return 2.0 * fma_per_mopa / self.mpu_cycles_per_mopa


#: LX2 CPU core (paper §5.1): 8-lane FP64 VPU, 8x8 FP64 MPU at 4x the VPU rate.
#: A MOPA covers 64 FMAs; with the VPU doing 8 FMAs/cycle, a 4x FLOP ratio
#: means one MOPA retires every 2 cycles.
LX2_SPEC = ArchSpec(
    name="LX2",
    frequency_hz=1.3e9,
    vpu_lanes=8,
    mpu_tile_rows=8,
    mpu_tile_cols=8,
    vpu_cycles_per_op=1.0,
    mpu_cycles_per_mopa=2.0,
    gather_scatter_penalty=3.0,
    scalar_cycles_per_op=1.0,
    atomic_cycles=8.0,
    atomic_conflict_cycles=24.0,
    bytes_per_cycle_near=28.0,
    bytes_per_cycle_far=10.0,
    tile_move_cycles=8.0,
    cores=256,
)

#: NVIDIA A800 SXM used for the Table 3 comparison.  The "core" here is one
#: SM; the CUDA deposition kernel is modelled separately in
#: :mod:`repro.baselines.gpu_model`, this spec only provides the peak FP64
#: rate and memory bandwidth for the efficiency denominator.
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
