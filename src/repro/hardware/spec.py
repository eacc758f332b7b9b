"""Architecture specifications used by the cost model.

``LX2_SPEC`` is the MPU-equipped CPU of the paper's LS pilot system
(§5.1): >256 cores per package, 512-bit FP64 VPUs, 8x8 FP64 MPU tiles
whose MOPA instruction delivers roughly 4x the VPU MLA FLOP rate,
operating at 1.3 GHz.  The data-centre GPU of Table 3's cross-platform
comparison (an A800) is described beside the paper ledger, in
``tests/efficiency_oracles.py``.

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
