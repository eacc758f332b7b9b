"""Public facade: build and drive simulations through one small API.

:class:`Session` is the supported entry point for running the PIC loop.
It wraps a :class:`~repro.pic.simulation.Simulation` (and therefore the
:class:`~repro.pipeline.StepPipeline` behind it) and exposes a stepping
iterator instead of the legacy imperative ``Simulation.step()`` calls::

    from repro.api import Session
    from repro.workloads.uniform import UniformPlasmaWorkload

    with UniformPlasmaWorkload(ppc=8).build_session() as session:
        for state in session.run(steps=10, record_energy=True):
            print(state.step, state.energy.total)
    breakdown = session.breakdown          # per-stage wall time

Everything the old API returned is reachable through the session
(``session.simulation`` for the full legacy object), and the pipeline is
exposed for extension (``session.pipeline.insert_after(...)``,
``session.pipeline.add_post_hook(...)``).

Bitwise contract: a session-driven run is bit-identical to the same
number of ``Simulation.step()`` calls — both are the same
``pipeline.run_step()`` underneath.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Union

from repro.backend import BackendConfig
from repro.config import SimulationConfig
from repro.obs import ObsConfig, Telemetry
from repro.pic.diagnostics import (
    EnergyDiagnostic,
    EnergyRecord,
    RuntimeBreakdown,
)
from repro.pic.simulation import DepositionStrategy, Simulation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pic.grid import Grid
    from repro.pic.particles import ParticleContainer
    from repro.pipeline import StepPipeline

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
    """One simulation run behind the composable step pipeline.

    Construct from a :class:`~repro.config.SimulationConfig` (keyword
    options mirror :class:`~repro.pic.simulation.Simulation`), from a
    workload builder (:meth:`from_workload` — also available as the
    workloads' ``build_session``), or around an existing simulation
    (:meth:`from_simulation`).
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
        self._simulation = Simulation(config, deposition=deposition,
                                      load_plasma=load_plasma)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_simulation(cls, simulation: Simulation) -> "Session":
        """Wrap an already constructed simulation (no copies made)."""
        session = cls.__new__(cls)
        session._simulation = simulation
        return session

    @classmethod
    def from_workload(cls, workload, *,
                      deposition: Optional[DepositionStrategy] = None,
                      backend: Union[BackendConfig, str, None] = None,
                      observe: Union[ObsConfig, bool, None] = None
                      ) -> "Session":
        """Build a session from a workload builder.

        ``workload`` is anything exposing ``build_simulation`` (all of
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
        return cls.from_simulation(
            workload.build_simulation(deposition=deposition))

    # ------------------------------------------------------------------
    # the underlying objects
    # ------------------------------------------------------------------
    @property
    def simulation(self) -> Simulation:
        """The wrapped simulation (full legacy surface)."""
        return self._simulation

    @property
    def pipeline(self) -> "StepPipeline":
        """The stage graph driving every step; open for extension."""
        return self._simulation.pipeline

    @property
    def config(self) -> SimulationConfig:
        return self._simulation.config

    @property
    def grid(self) -> "Grid":
        return self._simulation.grid

    @property
    def containers(self) -> List["ParticleContainer"]:
        return self._simulation.containers

    @property
    def breakdown(self) -> RuntimeBreakdown:
        """Per-stage wall-time accounting of every step run so far."""
        return self._simulation.breakdown

    @property
    def energy(self) -> EnergyDiagnostic:
        return self._simulation.energy

    @property
    def telemetry(self) -> Telemetry:
        """The run's telemetry registry (:mod:`repro.obs`)."""
        return self._simulation.telemetry

    @property
    def step_index(self) -> int:
        return self._simulation.step_index

    @property
    def time(self) -> float:
        return self._simulation.time

    @property
    def num_particles(self) -> int:
        return self._simulation.num_particles

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self) -> StepResult:
        """Advance exactly one step through the pipeline."""
        simulation = self._simulation
        simulation.pipeline.run_step()
        return StepResult(step=simulation.step_index, time=simulation.time)

    def run(self, steps: Optional[int] = None,
            record_energy: bool = False) -> Iterator[StepResult]:
        """Advance ``steps`` steps (default: the configured ``max_steps``),
        yielding a :class:`StepResult` after each one.

        A generator: iterate it (or drain it with :meth:`run_all`) for
        the steps to execute.  With ``record_energy`` the history holds
        one initial snapshot before the first step and one after every
        step.
        """
        simulation = self._simulation
        n = simulation.config.max_steps if steps is None else steps
        telemetry = simulation.telemetry
        telemetry.begin_span("run", cat="run", args={"steps": n})
        try:
            if record_energy:
                if simulation._skip_initial_energy_record:
                    # a ckpt restore re-loaded a history that already
                    # holds the record for the current step; recording it
                    # again would fork the history from an uninterrupted
                    # run
                    simulation._skip_initial_energy_record = False
                else:
                    simulation._record_energy()
            for _ in range(n):
                simulation.pipeline.run_step()
                energy = (simulation._record_energy()
                          if record_energy else None)
                yield StepResult(step=simulation.step_index,
                                 time=simulation.time, energy=energy)
        finally:
            telemetry.end_span("run")

    def run_all(self, steps: Optional[int] = None,
                record_energy: bool = False) -> RuntimeBreakdown:
        """Drain :meth:`run` and return the runtime breakdown."""
        for _ in self.run(steps, record_energy=record_energy):
            pass
        return self._simulation.breakdown

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

        return save_simulation(self._simulation, path)

    def restore(self, path: str) -> "Session":
        """Load the snapshot at ``path`` into this session, in place.

        The session must have been built from the same configuration as
        the one that was saved (fingerprint-checked).  After a restore,
        continuing for ``N - k`` steps is bitwise identical to the
        uninterrupted ``N``-step run — fields, currents, particles and
        energy history.  Returns ``self`` for chaining.
        """
        from repro.ckpt import restore_simulation

        restore_simulation(self._simulation, path)
        return self

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Release the executor's worker pools (idempotent)."""
        self._simulation.shutdown()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Session(step={self.step_index})"
