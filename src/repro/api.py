"""The run object: build and drive a simulation through one small API.

:class:`Session` *is* a run.  It wires the substrate together — grid,
particle containers, Boris pusher, FDTD solver, boundary conditions,
laser antenna, moving window, the pluggable deposition strategy, the
tile executor and (on a decomposed run) the domain runtime — and
advances it through the standard PIC cycle of §3.1:

1. field gather and particle push,
2. window motion, particle boundary conditions and tile redistribution,
3. current deposition,
4. field solve (Maxwell update) plus laser injection.

The cycle itself is the one :class:`~repro.pipeline.StepPipeline` stage
list built at construction; every stage and hook is handed the session
itself, and ``session.grid`` is the array of record for every run::

    from repro.api import Session
    from repro.workloads.uniform import UniformPlasmaWorkload

    with UniformPlasmaWorkload(ppc=8).build_session() as session:
        for state in session.run(steps=10, record_energy=True):
            print(state.step, state.energy.total)
    breakdown = session.breakdown          # per-stage wall time

A session owns its collaborators: the kernel table resolved from
``config.backend`` rides on its grid, and the telemetry registry built
from ``config.observe`` is handed to its executor, halo exchange and
hooks.  Neither is process state, so sessions with different tiers or
tracing settings coexist in one process.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterator, List, Optional, Union

import numpy as np

from repro.backend import BackendConfig, activate
from repro.config import SimulationConfig
from repro.exec import TileExecutor, create_executor
from repro.hardware.counters import KernelCounters
from repro.obs import HealthHook, ObsConfig, Telemetry, TracingHook
from repro.obs.registry import NULL_TELEMETRY
from repro.pic.boundary import FieldBoundaryConditions
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
from repro.pic.simulation import DepositionStrategy, ReferenceDeposition
from repro.pipeline import StepPipeline, build_pipeline

__all__ = ["Session", "StepResult"]


def _coerce_observe(observe: Union[ObsConfig, bool]) -> ObsConfig:
    """An ``observe=`` argument as a full :class:`~repro.obs.ObsConfig`."""
    if isinstance(observe, ObsConfig):
        return observe
    if isinstance(observe, bool):
        return ObsConfig(enabled=observe)
    raise TypeError(
        f"observe must be an ObsConfig or a bool, got {observe!r}"
    )


@dataclass(frozen=True)
class StepResult:
    """State snapshot yielded by :meth:`Session.run` after each step."""

    #: completed steps so far (the just-finished step is number ``step``)
    step: int
    #: physical time reached [s]
    time: float
    #: energy snapshot, when the run records energy (None otherwise)
    energy: Optional[EnergyRecord] = None


class Session:
    """A complete PIC run assembled from a :class:`SimulationConfig`.

    Construct from a config, or from a workload builder
    (:meth:`from_workload` — also available as the workloads'
    ``build_session``).
    """

    def __init__(self, config: SimulationConfig, *,
                 deposition: Optional[DepositionStrategy] = None,
                 load_plasma: bool = True,
                 backend: Union[BackendConfig, str, None] = None,
                 observe: Union[ObsConfig, bool, None] = None):
        """``backend`` overrides ``config.backend``: a
        :class:`~repro.backend.BackendConfig`, or a kernel-tier name
        (``"auto"`` / ``"oracle"`` / ``"fused"``) as shorthand.
        ``observe`` overrides ``config.observe``: an
        :class:`~repro.obs.ObsConfig`, or a bool as shorthand for
        counters-only telemetry.
        """
        if backend is not None:
            config = config.with_updates(backend=BackendConfig.coerce(backend))
        if observe is not None:
            config = config.with_updates(observe=_coerce_observe(observe))
        self.config = config
        #: this run's telemetry registry, from ``config.observe`` (the
        #: shared disabled one when observability is off, so recording
        #: into it is always safe)
        self.telemetry = (Telemetry(config.observe)
                          if config.observe.enabled else NULL_TELEMETRY)
        self.telemetry.count("backend.tier_resolves")
        #: the kernel tier ``config.backend`` selects rides on the grid;
        #: the stencil primitives dispatch through ``grid.kernels``
        self.grid = Grid(config.grid, activate(config.backend))
        self.dt = config.time_step
        #: completed steps (the pipeline advances it after each one)
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
        self.moving_window = MovingWindow(config.moving_window, config.seed)
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

        #: per-stage wall-time accounting of every step run so far
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
        #: the stage list every step runs through (:mod:`repro.pipeline`)
        self.pipeline: StepPipeline = build_pipeline(self)
        if self.telemetry.enabled:
            tracing = TracingHook(self.telemetry)
            self.pipeline.add_post_hook(tracing)
            self.pipeline.add_step_hook(tracing.on_step)
            if config.observe.health:
                self.pipeline.add_step_hook(
                    HealthHook(config.observe, self.telemetry))

    @classmethod
    def from_workload(cls, workload, *,
                      deposition: Optional[DepositionStrategy] = None,
                      backend: Union[BackendConfig, str, None] = None,
                      observe: Union[ObsConfig, bool, None] = None
                      ) -> "Session":
        """Build a session from a workload builder.

        ``workload`` is anything exposing ``build_session`` (all of
        :mod:`repro.workloads`, plus user-defined builders).  ``backend``
        overrides the workload's backend selection (a
        :class:`~repro.backend.BackendConfig` or a kernel-tier name);
        ``observe`` overrides its telemetry selection (an
        :class:`~repro.obs.ObsConfig`, or a bool for counters-only).
        """
        if backend is not None:
            workload = dataclasses.replace(
                workload, backend=BackendConfig.coerce(backend))
        if observe is not None:
            workload = dataclasses.replace(
                workload, observe=_coerce_observe(observe))
        return workload.build_session(deposition=deposition)

    # ------------------------------------------------------------------
    @property
    def simulation(self) -> "Session":
        """The session itself: the one alias left of the retired
        ``Simulation`` wrapper, kept while ``bench/`` spells it."""
        return self

    @property
    def time(self) -> float:
        """Physical time of the current step [s]."""
        return self.step_index * self.dt

    @property
    def num_particles(self) -> int:
        """Total macro-particles across all species."""
        return sum(c.num_particles for c in self.containers)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self) -> StepResult:
        """Advance exactly one step through the pipeline."""
        self.pipeline.run_step()
        return StepResult(step=self.step_index, time=self.time)

    def run(self, steps: Optional[int] = None,
            record_energy: bool = False) -> Iterator[StepResult]:
        """Advance ``steps`` steps (default: the configured ``max_steps``),
        yielding a :class:`StepResult` after each one.

        A generator: iterate it (or drain it with :meth:`run_all`) for
        the steps to execute.  With ``record_energy`` the history holds
        one initial snapshot before the first step and one after every
        step.
        """
        n = self.config.max_steps if steps is None else steps
        self.telemetry.begin_span("run", cat="run", args={"steps": n})
        try:
            if record_energy:
                if self._skip_initial_energy_record:
                    # a ckpt restore re-loaded a history that already
                    # holds the record for the current step; recording it
                    # again would fork the history from an uninterrupted
                    # run
                    self._skip_initial_energy_record = False
                else:
                    self._record_energy()
            for _ in range(n):
                self.pipeline.run_step()
                energy = self._record_energy() if record_energy else None
                yield StepResult(step=self.step_index, time=self.time,
                                 energy=energy)
        finally:
            self.telemetry.end_span("run")

    def run_all(self, steps: Optional[int] = None,
                record_energy: bool = False) -> RuntimeBreakdown:
        """Drain :meth:`run` and return the runtime breakdown."""
        for _ in self.run(steps, record_energy=record_energy):
            pass
        return self.breakdown

    def _record_energy(self) -> EnergyRecord:
        """Record an energy snapshot of the current step."""
        return self.energy.record(self.step_index, self.grid,
                                  self.containers, executor=self.executor)

    # ------------------------------------------------------------------
    # checkpoint/restart
    # ------------------------------------------------------------------
    def save(self, path: str) -> str:
        """Write a deterministic, checksummed snapshot of the full
        session state to ``path`` (atomic; see :mod:`repro.ckpt`).

        Returns ``path``.  Saving the same state twice produces
        byte-identical files.
        """
        from repro.ckpt import save_simulation

        return save_simulation(self, path)

    def restore(self, path: str) -> "Session":
        """Load the snapshot at ``path`` into this session, in place.

        The session must have been built from the same configuration as
        the one that was saved (fingerprint-checked).  After a restore,
        continuing for ``N - k`` steps is bitwise identical to the
        uninterrupted ``N``-step run — fields, currents, particles and
        energy history.  Returns ``self`` for chaining.
        """
        from repro.ckpt import restore_simulation

        restore_simulation(self, path)
        return self

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Release the executor's worker pools (idempotent; the pools
        are recreated lazily if the session is stepped again)."""
        self.executor.shutdown()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Session(step={self.step_index})"
