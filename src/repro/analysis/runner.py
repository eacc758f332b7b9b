"""The experiment runner behind every campaign cell.

:func:`run_deposition_experiment` runs one named configuration on one
workload for a number of steps and returns an
:class:`~repro.analysis.metrics.ExperimentResult` with the modelled
kernel timing (this is what Tables 1-3 and Figures 8-10 are built from).
:func:`repro.analysis.campaign.run_spec` calls it for one cell of an
expanded grid request; sweeps over configurations, PPC and shape order
are grid requests run by :class:`repro.analysis.campaign.Campaign`.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.analysis.metrics import ExperimentResult
from repro.api import Session
from repro.baselines.configs import make_strategy
from repro.hardware.counters import KernelCounters


def run_deposition_experiment(workload, configuration: str, *,
                              steps: Optional[int] = None,
                              scramble: bool = True,
                              warmup_steps: int = 1) -> ExperimentResult:
    """Run one configuration on one workload and collect its kernel timing.

    Parameters
    ----------
    workload:
        A workload builder exposing ``build_session`` and the attributes
        ``ppc``, ``shape_order`` and ``max_steps`` (both
        :class:`~repro.workloads.uniform.UniformPlasmaWorkload` and
        :class:`~repro.workloads.lwfa.LWFAWorkload` qualify).
    configuration:
        A name accepted by :func:`repro.baselines.configs.make_strategy`.
    steps:
        Steps to measure (defaults to the workload's ``max_steps``).
    scramble:
        Scramble the initial particle order when the workload supports it,
        so no-sort configurations see the unordered layout the paper's
        baselines operate on.
    warmup_steps:
        Steps run before measurement starts (counters are discarded).  The
        default of one step mirrors the paper's warm-up phase (§5.2.2) and
        keeps one-off costs — the initial global sort of the sorted
        configurations — out of the per-step kernel numbers.
    """
    strategy = make_strategy(configuration)
    with Session.from_workload(workload, deposition=strategy) as session:
        if scramble and hasattr(workload, "scramble_particles"):
            workload.scramble_particles(session)

        for _ in range(warmup_steps):
            session.step()
        session.deposition_counters = KernelCounters()
        # the stage breakdown must cover exactly the measured steps, like
        # the kernel counters and wall clock (warmup contaminated the
        # reported stage_seconds — the Figure-1 style breakdowns — before
        # this reset existed); ditto the telemetry counters reported as
        # the result's ``metrics``
        session.breakdown.reset()
        if session.telemetry.enabled:
            session.telemetry.reset()

        n_steps = workload.max_steps if steps is None else steps
        start = time.perf_counter()
        for _ in session.run(n_steps):
            pass
        wall = time.perf_counter() - start

    timing = strategy.cost_model.timing(session.deposition_counters)
    shape_order = getattr(workload, "shape_order", session.config.shape_order)
    return ExperimentResult(
        configuration=configuration,
        ppc=getattr(workload, "ppc", 0),
        shape_order=shape_order,
        num_particles=session.num_particles,
        steps=n_steps,
        timing=timing,
        wall_seconds=wall,
        # the coarse stage buckets (breakdown.seconds) — NOT the
        # fine-grained breakdown.stage_seconds: the ExperimentResult
        # schema and the Figure-1/8 tables are keyed on the historical
        # bucket names
        stage_seconds=dict(session.breakdown.seconds),
        # deterministic counter snapshot (wall-clock / executor-shaped
        # series excluded) — empty unless the workload enabled telemetry
        metrics=(session.telemetry.snapshot()
                 if session.telemetry.enabled else {}),
        extra={
            "effective_flops": session.deposition_counters.effective_flops,
            "global_sorts": float(getattr(strategy, "global_sorts_performed", 0)),
        },
    )

