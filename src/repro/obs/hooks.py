"""Pipeline instrumentation: the :class:`TracingHook`.

The hook rides the PR 5 hook seam exactly like
:class:`repro.ckpt.hook.CheckpointHook`: a *pre-stage* callback opens the
step span (on the first stage of the step) and the stage span; the
*post-stage* callback closes the stage span, feeds the always-on
counters, and — on the last stage — emits a Chrome counter sample of the
deterministic metric snapshot and closes the step span.  Together with
the run span :meth:`repro.api.Session.run` opens, the exported trace
nests run → step → stage (→ shard batches, from the executor
instrumentation).

Counters are recorded whenever telemetry is enabled; the span calls
no-op unless tracing is also on, so one hook serves both modes.  Like
every shipped stage and hook it declares ``reads``/``writes`` effect
sets — telemetry is an external accumulator resource (the ``breakdown``
precedent), so recording into it never creates an ordering hazard.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.registry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.core import Stage, StageContext

__all__ = ["TracingHook"]


class TracingHook:
    """Pre+post stage hook producing spans and pipeline counters.

    Attach both halves::

        hook = TracingHook(telemetry)
        pipeline.add_pre_hook(hook.on_pre)
        pipeline.add_post_hook(hook)

    Per stage: a span named after the stage (category = its timing
    bucket) and a ``stage.<name>.calls`` counter.  The physics counters
    ride the stage names: ``gather_push`` contributes
    ``particles.pushed``, ``deposit`` contributes ``tiles.deposited``
    (non-empty tiles scanned).  On the last stage of
    each step a ``C`` (counter) event samples the deterministic metric
    snapshot, so a loaded trace shows counter evolution step by step.
    """

    name = "tracing"

    reads = frozenset({
        "step_index",
        "containers.membership",
        "telemetry",
    })
    writes = frozenset({"telemetry"})

    def __init__(self, telemetry: Telemetry) -> None:
        self.telemetry = telemetry

    # ------------------------------------------------------------------
    def on_pre(self, stage: "Stage", ctx: "StageContext") -> None:
        """Pre-stage half: open the step span, then the stage span."""
        handle = self.telemetry
        if not handle.tracing:
            return
        stages = ctx.simulation.pipeline.stages
        if stages and stage is stages[0]:
            handle.begin_span(f"step {ctx.step_index}", cat="step")
        handle.begin_span(stage.name, cat=stage.bucket)

    def __call__(self, stage: "Stage", ctx: "StageContext",
                 seconds: float) -> None:
        """Post-stage half: close spans, record the pipeline counters."""
        handle = self.telemetry
        if not handle.enabled:
            return
        handle.end_span(stage.name)
        handle.count(f"stage.{stage.name}.calls")
        if stage.name == "gather_push":
            handle.count("particles.pushed",
                         sum(c.num_particles for c in ctx.containers))
        elif stage.name == "deposit":
            handle.count("tiles.deposited",
                         sum(len(c.nonempty_tiles())
                             for c in ctx.containers))
        stages = ctx.simulation.pipeline.stages
        if stages and stage is stages[-1]:
            handle.counter_event("metrics", handle.snapshot())
            handle.end_span(f"step {ctx.step_index}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TracingHook({self.telemetry!r})"
