"""Analytic cost model converting instruction counters into modelled time.

The benchmarks of this reproduction do not compare Python wall-clock
against the paper's LX2 wall-clock (which would be meaningless); instead
every kernel records the instructions, memory traffic and atomic traffic it
*would* issue on the LX2, and this model converts those counts into
modelled seconds using a simple in-core roofline:

``phase_cycles = max(issue_cycles, memory_cycles)``

where ``issue_cycles`` charges each instruction class its throughput cost
from :class:`~repro.hardware.spec.ArchSpec` and ``memory_cycles`` charges
the near (cache-resident / streaming) and far (DRAM, scattered) byte
traffic separately.  Atomic conflicts add serialisation cycles on top, so
the contention behaviour that motivates the paper (Figure 2) is visible in
the modelled numbers.

The model covers the deposition kernel (preprocess, compute, reduce,
sort) only — the paper's subject.  The field gather, the push and the
field solve record no counters, so a change to them moves wall-clock
metrics and leaves every modelled number (``hardware.modelled_*`` in the
benchmark) bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.hardware.counters import KernelCounters, PhaseCounters
from repro.hardware.spec import LX2_SPEC


@dataclass
class KernelTiming:
    """Modelled per-phase seconds for one kernel invocation."""

    spec_name: str
    seconds_by_phase: Dict[str, float] = field(default_factory=dict)
    effective_flops: float = 0.0

    @property
    def preprocess(self) -> float:
        """Seconds spent in VPU data preparation (Table 1/2 "Preproc.")."""
        return self.seconds_by_phase.get("preprocess", 0.0)

    @property
    def compute(self) -> float:
        """Seconds in deposition arithmetic plus the rhocell reduction."""
        return (self.seconds_by_phase.get("compute", 0.0)
                + self.seconds_by_phase.get("reduce", 0.0))

    @property
    def sort(self) -> float:
        """Seconds in incremental/global sorting (Table 1/2 "Sort")."""
        return self.seconds_by_phase.get("sort", 0.0)

    @property
    def total(self) -> float:
        """Total modelled kernel seconds."""
        return sum(self.seconds_by_phase.values())

    def merge(self, other: "KernelTiming") -> None:
        """Accumulate another timing (e.g. another step) into this one."""
        for phase, seconds in other.seconds_by_phase.items():
            self.seconds_by_phase[phase] = (
                self.seconds_by_phase.get(phase, 0.0) + seconds
            )
        self.effective_flops += other.effective_flops

    def scaled(self, factor: float) -> "KernelTiming":
        """A copy with every phase multiplied by ``factor``."""
        return KernelTiming(
            spec_name=self.spec_name,
            seconds_by_phase={k: v * factor for k, v in self.seconds_by_phase.items()},
            effective_flops=self.effective_flops * factor,
        )

    def to_dict(self) -> Dict[str, object]:
        """Lossless JSON-able representation (see :meth:`from_dict`).

        Floats survive a JSON round trip exactly (``json`` emits the
        shortest repr that parses back to the same IEEE-754 double), so
        ``from_dict(json.loads(json.dumps(to_dict())))`` reproduces the
        timing bit for bit — the property the campaign result cache
        relies on.
        """
        return {
            "spec_name": self.spec_name,
            "seconds_by_phase": dict(self.seconds_by_phase),
            "effective_flops": self.effective_flops,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "KernelTiming":
        """Rebuild a timing from :meth:`to_dict` output."""
        return cls(
            spec_name=str(payload["spec_name"]),
            seconds_by_phase={str(k): float(v) for k, v
                              in payload["seconds_by_phase"].items()},
            effective_flops=float(payload.get("effective_flops", 0.0)),
        )


class CostModel:
    """Converts :class:`KernelCounters` into :class:`KernelTiming` on the
    paper's LX2 core."""

    spec = LX2_SPEC

    # ------------------------------------------------------------------
    def phase_cycles(self, counters: PhaseCounters) -> float:
        """Modelled cycles for one phase on one core.

        The VPU and MPU are separate pipelines of the core, so the hybrid
        kernel's MOPA stream overlaps with the VPU staging stream; the phase
        is limited by the slower of the two issue streams and the memory
        traffic (an in-core roofline).
        """
        spec = self.spec
        vpu_issue = (
            counters.vpu_fma * spec.vpu_cycles_per_op
            + counters.vpu_alu * spec.vpu_cycles_per_op
            + counters.vpu_mem * spec.vpu_cycles_per_op
            + counters.vpu_gather_scatter
            * (spec.vpu_cycles_per_op + spec.gather_scatter_penalty)
            + counters.scalar_ops * spec.scalar_cycles_per_op
            + counters.atomic_updates * spec.atomic_cycles
            + counters.atomic_conflicts * spec.atomic_conflict_cycles
        )
        mpu_issue = (
            counters.mpu_mopa * spec.mpu_cycles_per_mopa
            + counters.mpu_tile_moves * spec.tile_move_cycles
        )
        memory = (
            counters.bytes_near / spec.bytes_per_cycle_near
            + counters.bytes_far / spec.bytes_per_cycle_far
        )
        return max(vpu_issue, mpu_issue, memory)

    def phase_seconds(self, counters: PhaseCounters) -> float:
        """Modelled seconds for one phase on one core."""
        cycles = self.phase_cycles(counters)
        return cycles / self.spec.frequency_hz

    def timing(self, counters: KernelCounters) -> KernelTiming:
        """Modelled timing of a whole kernel invocation."""
        seconds = {
            phase: self.phase_seconds(phase_counters)
            for phase, phase_counters in counters.phases.items()
        }
        return KernelTiming(
            spec_name=self.spec.name,
            seconds_by_phase=seconds,
            effective_flops=counters.effective_flops,
        )

    # ------------------------------------------------------------------
    def throughput(self, timing: KernelTiming, num_particles: int) -> float:
        """Deposition throughput in particles per modelled second."""
        if timing.total <= 0.0:
            return 0.0
        return num_particles / timing.total

    @staticmethod
    def speedup(reference: KernelTiming, optimized: KernelTiming) -> float:
        """Relative performance ``T_reference / T_optimized`` (§5.2.2)."""
        if optimized.total <= 0.0:
            return float("inf")
        return reference.total / optimized.total
