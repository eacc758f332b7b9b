"""Per-kernel, per-phase instruction and byte counters.

Every instrumented kernel in the library (the baseline deposition, the
rhocell variants, the hybrid MPU kernel, the sorters) records the work it
performs into a :class:`KernelCounters` object, split into the phases that
the paper's Tables 1 and 2 report: ``preprocess``, ``compute``, ``sort``
and ``reduce``.  The :mod:`repro.hardware.cost_model` converts these counts
into modelled seconds; :mod:`repro.analysis` aggregates them into the
tables and figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterator

#: Phase names used throughout the library.  ``reduce`` is folded into the
#: compute column when reproducing Table 1/2 (the paper measures the rhocell
#: reduction as part of the kernel).
PHASES = ("preprocess", "compute", "sort", "reduce")


@dataclass
class PhaseCounters:
    """Raw event counts accumulated during one phase of a kernel."""

    #: vector FMA / MLA instructions (8 lanes each on the LX2)
    vpu_fma: float = 0.0
    #: other vector ALU instructions (add, mul, compare, blend, ...)
    vpu_alu: float = 0.0
    #: contiguous vector load/store instructions
    vpu_mem: float = 0.0
    #: indexed vector gather/scatter instructions
    vpu_gather_scatter: float = 0.0
    #: scalar instructions (loop control, index arithmetic that fails to
    #: vectorise, ...)
    scalar_ops: float = 0.0
    #: MPU outer-product-accumulate instructions
    mpu_mopa: float = 0.0
    #: MPU tile register moves (zeroing, spilling to VPU registers / memory)
    mpu_tile_moves: float = 0.0
    #: atomic read-modify-write updates
    atomic_updates: float = 0.0
    #: atomic updates that conflict with another lane/thread and serialise
    atomic_conflicts: float = 0.0
    #: bytes moved on the cache-friendly path (streaming, sorted access)
    bytes_near: float = 0.0
    #: bytes moved on the cache-hostile path (random access, unsorted)
    bytes_far: float = 0.0
    #: FP64 floating point operations that constitute *useful* work for the
    #: peak-efficiency metric of Table 3 (the "effective computational work"
    #: of §5.2.2, counted from the canonical scalar algorithm)
    effective_flops: float = 0.0

    def add(self, **kwargs: float) -> None:
        """Increment several counters at once."""
        for name, value in kwargs.items():
            if not hasattr(self, name):
                raise AttributeError(f"unknown counter {name!r}")
            setattr(self, name, getattr(self, name) + float(value))

    def merge(self, other: "PhaseCounters") -> None:
        """Accumulate another phase's counts into this one."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> Dict[str, float]:
        """Counter values keyed by name."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class KernelCounters:
    """Counters for a whole kernel invocation, split by phase."""

    phases: Dict[str, PhaseCounters] = field(
        default_factory=lambda: {name: PhaseCounters() for name in PHASES}
    )

    def phase(self, name: str) -> PhaseCounters:
        """The counters of one phase, creating it on first use."""
        if name not in self.phases:
            self.phases[name] = PhaseCounters()
        return self.phases[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self.phases)

    def merge(self, other: "KernelCounters") -> None:
        """Accumulate another kernel invocation's counters into this one."""
        for name, counters in other.phases.items():
            self.phase(name).merge(counters)

    def combined(self) -> PhaseCounters:
        """All phases merged into a single :class:`PhaseCounters`."""
        total = PhaseCounters()
        for counters in self.phases.values():
            total.merge(counters)
        return total

    def reset(self) -> None:
        """Zero every phase."""
        self.phases = {name: PhaseCounters() for name in PHASES}

    @property
    def effective_flops(self) -> float:
        """Total useful FP64 work recorded across phases."""
        return sum(c.effective_flops for c in self.phases.values())
