"""Pipeline instrumentation: the :class:`TracingHook`.

The spans of a run are opened and closed where the structure is known:
:meth:`repro.api.Session.run` brackets the run and
:meth:`repro.pipeline.StepPipeline.run_step` brackets the step and each
stage (closing them in ``finally``), so the exported trace nests run →
step → stage (→ shard batches, from the executor instrumentation).  The
hook adds what the pipeline does not know: a *post-stage* callback
feeds the always-on counters, and a *step* callback emits a Chrome
counter sample of the deterministic metric snapshot once per completed
step.

Counters are recorded whenever telemetry is enabled; the counter sample
no-ops unless tracing is also on, so one hook serves both modes.  Like
every shipped stage and hook it declares ``reads``/``writes`` effect
sets — telemetry is an external accumulator resource (the ``breakdown``
precedent), so recording into it never creates an ordering hazard.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.registry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import Session
    from repro.pipeline.core import Stage

__all__ = ["TracingHook"]


class TracingHook:
    """Post-stage + step hook producing the pipeline counters.

    Attach both halves::

        hook = TracingHook(telemetry)
        pipeline.add_post_hook(hook)
        pipeline.add_step_hook(hook.on_step)

    Per stage: a ``stage.<name>.calls`` counter.  The physics counters
    ride the stage names: ``gather_push`` contributes
    ``particles.pushed``, ``deposit`` contributes ``tiles.deposited``
    (non-empty tiles scanned).  After each completed step a ``C``
    (counter) event samples the deterministic metric snapshot, so a
    loaded trace shows counter evolution step by step.
    """

    name = "tracing"

    reads = frozenset({"containers.membership", "telemetry"})
    writes = frozenset({"telemetry"})

    def __init__(self, telemetry: Telemetry) -> None:
        self.telemetry = telemetry

    # ------------------------------------------------------------------
    def __call__(self, stage: "Stage", session: "Session",
                 seconds: float) -> None:
        """Post-stage half: record the pipeline counters."""
        handle = self.telemetry
        if not handle.enabled:
            return
        handle.count(f"stage.{stage.name}.calls")
        if stage.name == "gather_push":
            handle.count("particles.pushed",
                         sum(c.num_particles for c in session.containers))
        elif stage.name == "deposit":
            handle.count("tiles.deposited",
                         sum(len(c.nonempty_tiles())
                             for c in session.containers))

    def on_step(self, session: "Session") -> None:
        """Step half: sample the deterministic counters into the trace."""
        handle = self.telemetry
        if handle.tracing:
            handle.counter_event("metrics", handle.snapshot())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TracingHook({self.telemetry!r})"
