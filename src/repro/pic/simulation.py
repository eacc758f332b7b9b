"""Top-level PIC simulation loop.

The :class:`Simulation` class wires the substrate together — grid, particle
containers, Boris pusher, field gather, FDTD solver, boundary conditions,
laser antenna and moving window — and runs the standard PIC cycle of §3.1:

1. field gather and particle push,
2. particle boundary conditions and tile redistribution,
3. current deposition,
4. field solve (Maxwell update) plus laser injection and window motion.

The deposition step is pluggable: by default the fast, uninstrumented
reference kernel is used, while the benchmarks install a
:class:`DepositionStrategy` (the baseline kernels of
:mod:`repro.baselines` or the Matrix-PIC framework of :mod:`repro.core`)
that also performs sorting and records hardware counters.

The cycle itself lives in :mod:`repro.pipeline`: construction builds the
one :class:`~repro.pipeline.StepPipeline` stage list (the tile executor
and, on a decomposed run, the domain runtime travel in the stage
context), and :meth:`Simulation.step` is ``pipeline.run_step()``.
``Simulation.grid`` is the array of record for every run.  New-style
callers drive the loop through :class:`repro.api.Session`.

A simulation owns its collaborators: the kernel table resolved from
``config.backend`` rides on its grid, and the telemetry registry built
from ``config.observe`` is handed to its executor, halo exchange and
hooks.  Neither is process state, so simulations with different tiers
or tracing settings coexist in one process.
"""

from __future__ import annotations

from typing import List, Optional, Protocol

import numpy as np

from repro.backend import activate
from repro.config import SimulationConfig
from repro.exec import TileExecutor, create_executor
from repro.hardware.counters import KernelCounters
from repro.obs import HealthHook, Telemetry, TracingHook
from repro.obs.registry import NULL_TELEMETRY
from repro.pic.boundary import FieldBoundaryConditions
from repro.pic.deposition.reference import deposit_reference
from repro.pic.diagnostics import (
    EnergyDiagnostic,
    EnergyRecord,
    RuntimeBreakdown,
)
from repro.pic.grid import Grid
from repro.pic.laser import LaserAntenna
from repro.pic.maxwell import FDTDSolver
from repro.pic.moving_window import MovingWindow
from repro.pic.particles import ParticleContainer
from repro.pic.plasma import load_uniform_plasma
from repro.pic.pusher import BorisPusher
from repro.pipeline import StepPipeline, build_pipeline


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

        ``executor`` is the simulation's tile executor (:mod:`repro.exec`);
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


class Simulation:
    """A complete PIC simulation assembled from a :class:`SimulationConfig`."""

    def __init__(self, config: SimulationConfig,
                 deposition: Optional[DepositionStrategy] = None,
                 load_plasma: bool = True):
        self.config = config
        #: this run's telemetry registry, from ``config.observe`` (the
        #: shared disabled one when observability is off)
        self.telemetry = (Telemetry(config.observe)
                          if config.observe.enabled else NULL_TELEMETRY)
        self.telemetry.count("backend.tier_resolves")
        #: the kernel tier ``config.backend`` selects rides on the grid;
        #: the stencil primitives dispatch through ``grid.kernels``
        self.grid = Grid(config.grid, activate(config.backend))
        self.dt = config.time_step
        self.step_index = 0
        self.rng = np.random.default_rng(config.seed)

        self.containers: List[ParticleContainer] = [
            ParticleContainer(config.grid, species) for species in config.species
        ]
        if load_plasma:
            for container, species in zip(self.containers, config.species):
                load_uniform_plasma(self.grid, container, species, self.rng)

        self.pusher = BorisPusher(shape_order=config.shape_order)
        self.solver = (
            FDTDSolver(self.grid, scheme=config.field_solver)
            if config.field_solver != "none" else None
        )
        self.boundaries = FieldBoundaryConditions(config.grid)
        self.laser = (
            LaserAntenna(config.laser, self.grid, axis=config.moving_window.axis)
            if config.laser is not None else None
        )
        self.moving_window = MovingWindow(config.moving_window)
        self.deposition: DepositionStrategy = (
            deposition if deposition is not None else ReferenceDeposition()
        )
        #: tile execution engine shared by every per-tile stage of the loop
        self.executor: TileExecutor = create_executor(config.execution,
                                                      self.telemetry)

        #: domain-decomposed solve + migration accounting (``None`` on a
        #: single-domain run)
        self.domain = None
        if config.domain.is_decomposed:
            from repro.domain.runtime import DomainRuntime

            self.domain = DomainRuntime(self)

        self.breakdown = RuntimeBreakdown(
            executor_name=self.executor.name,
            kernel_tier=self.grid.kernels.kernel_tier,
            # share the telemetry's metric registry so the breakdown is
            # a view over the exported metrics (time.bucket.*/time.stage.*)
            metrics=(self.telemetry.metrics if self.telemetry.enabled
                     else None),
        )
        self.energy = EnergyDiagnostic()
        #: one-shot flag set by a :mod:`repro.ckpt` restore when the
        #: re-loaded history already holds the record for the current
        #: step; the next recording run consumes it instead of writing a
        #: duplicate initial snapshot
        self._skip_initial_energy_record = False
        #: accumulated hardware counters from the deposition strategy
        self.deposition_counters = KernelCounters()
        #: the stage graph every step runs through (:mod:`repro.pipeline`)
        self.pipeline: StepPipeline = build_pipeline(self)
        if self.telemetry.enabled:
            tracing = TracingHook(self.telemetry)
            self.pipeline.add_pre_hook(tracing.on_pre)
            self.pipeline.add_post_hook(tracing)
            if config.observe.health:
                self.pipeline.add_post_hook(
                    HealthHook(config.observe, self.telemetry))

    # ------------------------------------------------------------------
    @property
    def time(self) -> float:
        """Physical time of the current step [s]."""
        return self.step_index * self.dt

    @property
    def num_particles(self) -> int:
        """Total macro-particles across all species."""
        return sum(c.num_particles for c in self.containers)

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the whole system by one time step.

        Runs ``self.pipeline.run_step()``: the stage ordering, executor
        sharding and (for a decomposed domain) the per-subdomain solve
        are all owned by the pipeline.  Prefer
        :meth:`repro.api.Session.run` for new code.
        """
        self.pipeline.run_step()

    def _record_energy(self) -> EnergyRecord:
        """Record an energy snapshot of the current step."""
        return self.energy.record(self.step_index, self.grid,
                                  self.containers, executor=self.executor)

    def shutdown(self) -> None:
        """Release the executor's worker pools (if any).

        Idempotent; the pools are recreated lazily if the simulation is
        stepped again afterwards.
        """
        self.executor.shutdown()

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
