"""The deposition seam of the PIC loop.

The loop itself is :class:`repro.api.Session`; its deposition step is
pluggable.  By default the fast, uninstrumented reference kernel is
used, while the benchmarks install a :class:`DepositionStrategy` (the
baseline kernels of :mod:`repro.baselines` or the Matrix-PIC framework
of :mod:`repro.core`) that also performs sorting and records hardware
counters.
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.exec import TileExecutor
from repro.hardware.counters import KernelCounters
from repro.pic.deposition.reference import deposit_reference
from repro.pic.grid import Grid
from repro.pic.particles import ParticleContainer


class DepositionStrategy(Protocol):
    """Deposition step installed into the simulation loop.

    A strategy owns everything the paper counts as part of the deposition
    kernel: data preparation, (incremental) sorting and the deposition
    proper.  It must *add* current to the grid arrays (which are zeroed by
    the loop beforehand) and may return hardware counters for the cost
    model.
    """

    def run_step(self, grid: Grid, container: ParticleContainer,
                 order: int, step: int,
                 executor: Optional[TileExecutor] = None
                 ) -> Optional[KernelCounters]:
        """Deposit one species for one step.

        ``executor`` is the session's tile executor (:mod:`repro.exec`);
        strategies may shard their per-tile work over it or ignore it.
        """
        ...


class ReferenceDeposition:
    """Default strategy: the uninstrumented scatter-add reference kernel."""

    name = "Reference"

    def run_step(self, grid: Grid, container: ParticleContainer,
                 order: int, step: int,
                 executor: Optional[TileExecutor] = None
                 ) -> Optional[KernelCounters]:
        deposit_reference(grid, container, order, executor=executor)
        return None
