"""Step-pipeline core: the :class:`Stage` protocol, per-step context and
the :class:`StepPipeline` that owns stage ordering and hooks.

One pipeline instance drives **every** step path of the library — the
global single-domain loop, the executor-sharded loop (the executor
travels in the context) and the domain-decomposed loop (the solve stage
runs per subdomain slab) — through one stage list
(:mod:`repro.pipeline.builder`), so new capabilities — per-stage
instrumentation, checkpointing, health probes — plug in as stages or
hooks instead of being threaded through copies of the PIC cycle.

Determinism contract
--------------------
The pipeline adds **no** floating-point work of its own: ``run_step``
invokes the stages' ``run`` methods in list order with only wall-clock
bookkeeping between them, so a pipeline-routed step is bitwise identical
to the pre-pipeline hand-wired loop for fields, J/rho and the energy
history — across backends, shard counts and domain splits.

A *stage* is any object with a unique ``name``, a ``bucket`` (the coarse
:data:`repro.pic.diagnostics.STAGES` category its wall time rolls up
into) and a ``run(ctx)`` method; no registration or base class is
required (structural typing via :class:`Stage`).
"""

from __future__ import annotations

import time
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    FrozenSet,
    Iterable,
    List,
    Protocol,
    Tuple,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backend import ActiveKernels
    from repro.config import SimulationConfig
    from repro.domain.runtime import DomainRuntime
    from repro.exec import TileExecutor
    from repro.obs.registry import Telemetry
    from repro.pic.diagnostics import RuntimeBreakdown
    from repro.pic.grid import Grid
    from repro.pic.particles import ParticleContainer
    from repro.pic.simulation import Simulation

#: hook signatures: pre-stage ``hook(stage, ctx)``, post-stage
#: ``hook(stage, ctx, seconds)`` with the stage's wall-clock seconds
PreStageHook = Callable[["Stage", "StageContext"], None]
PostStageHook = Callable[["Stage", "StageContext", float], None]


class StageContext:
    """Everything a stage may touch while running one step.

    A thin, stable view over the owning :class:`~repro.pic.simulation.
    Simulation`: grid geometry, the tile executor, the (optional) domain
    decomposition runtime and the particle containers.  Stages read the
    live simulation through it, so the context never goes stale when the
    moving window shifts the grid or a species is added.
    """

    __slots__ = ("simulation",)

    def __init__(self, simulation: "Simulation") -> None:
        self.simulation = simulation

    # ------------------------------------------------------------------
    @property
    def config(self) -> "SimulationConfig":
        return self.simulation.config

    @property
    def grid(self) -> "Grid":
        """The global frame grid (the arrays of record of every run)."""
        return self.simulation.grid

    @property
    def kernels(self) -> "ActiveKernels":
        """The run's kernel dispatch table (carried by the grid)."""
        return self.simulation.grid.kernels

    @property
    def executor(self) -> "TileExecutor":
        """Tile execution engine shared by every sharded stage."""
        return self.simulation.executor

    @property
    def containers(self) -> List["ParticleContainer"]:
        return self.simulation.containers

    @property
    def domain(self) -> "DomainRuntime | None":
        """Domain-decomposed runtime (solve + migration accounting), or
        None on a single-domain run."""
        return self.simulation.domain

    @property
    def breakdown(self) -> "RuntimeBreakdown":
        return self.simulation.breakdown

    @property
    def telemetry(self) -> "Telemetry":
        """The run's telemetry registry (:mod:`repro.obs`); the shared
        null singleton when observability is off, so recording into it
        is always safe."""
        return self.simulation.telemetry

    @property
    def dt(self) -> float:
        return self.simulation.dt

    @property
    def step_index(self) -> int:
        """Index of the step being advanced (incremented *after* run_step)."""
        return self.simulation.step_index

    @property
    def time(self) -> float:
        """Physical time of the step being advanced [s]."""
        return self.simulation.time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StageContext(step={self.step_index})"


@runtime_checkable
class Stage(Protocol):
    """One named unit of the PIC step cycle.

    ``name`` must be unique within a pipeline; ``bucket`` names the
    coarse :data:`repro.pic.diagnostics.STAGES` category the stage's wall
    time is credited to; ``run`` performs the work, mutating simulation
    state through the context.

    ``reads`` and ``writes`` declare the stage's *effects*: the
    :mod:`repro.pipeline.effects` resources it consumes and produces.
    The declarations are the input to the static write-after-read hazard
    checker (:func:`repro.pipeline.effects.check_stage_set`) and are
    verified complete against the ``run`` body by ``python -m repro
    lint`` — every shipped stage must carry them.
    """

    name: str
    bucket: str
    reads: FrozenSet[str]
    writes: FrozenSet[str]

    def run(self, ctx: StageContext) -> None: ...


class StepPipeline:
    """Ordered stage graph advancing a simulation by one step at a time.

    The pipeline owns the stage ordering, the shared :class:`StageContext`
    and two hook points: *pre-stage* hooks fire before each stage, and
    *post-stage* hooks fire after it with the stage's wall-clock seconds
    (this is where :class:`BreakdownTimingHook` lives).  ``run_step``
    finishes by marking the step on the runtime breakdown and advancing
    ``simulation.step_index`` — exactly the epilogue of the pre-pipeline
    loops.
    """

    def __init__(self, stages: Iterable[Stage],
                 context: StageContext) -> None:
        self._stages: List[Stage] = []
        self.context = context
        self._pre_hooks: List[PreStageHook] = []
        self._post_hooks: List[PostStageHook] = []
        for stage in stages:
            self.append(stage)

    # ------------------------------------------------------------------
    # stage-list management
    # ------------------------------------------------------------------
    @property
    def stages(self) -> Tuple[Stage, ...]:
        """The stages in execution order (immutable view)."""
        return tuple(self._stages)

    def stage_names(self) -> Tuple[str, ...]:
        """The stage names in execution order."""
        return tuple(stage.name for stage in self._stages)

    def _check(self, stage: Stage) -> None:
        name = getattr(stage, "name", None)
        bucket = getattr(stage, "bucket", None)
        if not isinstance(name, str) or not name:
            raise TypeError(f"stage {stage!r} has no usable name")
        if not isinstance(bucket, str) or not bucket:
            raise TypeError(f"stage {name!r} has no timing bucket")
        if not callable(getattr(stage, "run", None)):
            raise TypeError(f"stage {name!r} has no run() method")
        if name in self.stage_names():
            raise ValueError(f"duplicate stage name {name!r}")

    def _index(self, name: str) -> int:
        for index, stage in enumerate(self._stages):
            if stage.name == name:
                return index
        raise KeyError(
            f"no stage named {name!r}; pipeline has {self.stage_names()}"
        )

    def append(self, stage: Stage) -> None:
        """Add a stage at the end of the pipeline."""
        self._check(stage)
        self._stages.append(stage)

    def insert_before(self, name: str, stage: Stage) -> None:
        """Insert ``stage`` immediately before the stage called ``name``."""
        self._check(stage)
        self._stages.insert(self._index(name), stage)

    def insert_after(self, name: str, stage: Stage) -> None:
        """Insert ``stage`` immediately after the stage called ``name``."""
        self._check(stage)
        self._stages.insert(self._index(name) + 1, stage)

    def replace(self, name: str, stage: Stage) -> Stage:
        """Swap the stage called ``name`` for ``stage``; returns the old one."""
        index = self._index(name)
        old = self._stages[index]
        del self._stages[index]
        try:
            self._check(stage)
        except (TypeError, ValueError):
            self._stages.insert(index, old)
            raise
        self._stages.insert(index, stage)
        return old

    def remove(self, name: str) -> Stage:
        """Remove and return the stage called ``name``."""
        return self._stages.pop(self._index(name))

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def add_pre_hook(self, hook: PreStageHook) -> PreStageHook:
        """Register ``hook(stage, ctx)`` to fire before every stage."""
        self._pre_hooks.append(hook)
        return hook

    def add_post_hook(self, hook: PostStageHook) -> PostStageHook:
        """Register ``hook(stage, ctx, seconds)`` to fire after every stage."""
        self._post_hooks.append(hook)
        return hook

    def remove_hook(self, hook: Any) -> bool:
        """Detach a previously added hook; True when something was removed."""
        removed = False
        if hook in self._pre_hooks:
            self._pre_hooks.remove(hook)
            removed = True
        if hook in self._post_hooks:
            self._post_hooks.remove(hook)
            removed = True
        return removed

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def run_step(self) -> None:
        """Advance the simulation by one step through every stage.

        Stages run strictly in list order; each is wall-clock timed and
        reported to the post-stage hooks.  The epilogue (breakdown step
        mark + ``step_index`` advance) matches the pre-pipeline loops
        exactly.
        """
        ctx = self.context
        for stage in self._stages:
            for hook in self._pre_hooks:
                hook(stage, ctx)
            start = time.perf_counter()
            stage.run(ctx)
            elapsed = time.perf_counter() - start
            for hook in self._post_hooks:
                hook(stage, ctx, elapsed)
        simulation = ctx.simulation
        simulation.breakdown.finish_step()
        simulation.step_index += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StepPipeline(stages={list(self.stage_names())})"


class BreakdownTimingHook:
    """Post-stage hook feeding per-stage wall time into the breakdown.

    Every stage's seconds land both under its own name
    (``breakdown.stage_seconds``) and under its coarse bucket
    (``breakdown.seconds``), the Figure-1 categories.
    """

    def __call__(self, stage: Stage, ctx: StageContext,
                 seconds: float) -> None:
        ctx.breakdown.record_stage(stage.name, stage.bucket, seconds)
