"""Experiment runners shared by the benchmarks, examples and tests.

Two levels are provided:

* :func:`run_deposition_experiment` — run one named configuration on one
  workload for a number of steps and return an
  :class:`~repro.analysis.metrics.ExperimentResult` with the modelled
  kernel timing (this is what Tables 1-3 and Figures 8-10 are built from),
* :func:`run_simulation_experiment` — run the plain simulation loop with
  the reference kernel and return the wall-clock stage breakdown
  (Figure 1).

``sweep_configurations`` maps a list of configuration names over a
workload through the campaign layer (:mod:`repro.analysis.campaign`):
every configuration runs on a freshly built, identically seeded
simulation, optionally in parallel worker processes and replayed from the
on-disk result cache.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Optional

from repro.analysis.metrics import ExperimentResult
from repro.api import Session
from repro.baselines.configs import make_strategy
from repro.config import SortingPolicyConfig
from repro.hardware.cost_model import CostModel
from repro.hardware.counters import KernelCounters


def run_deposition_experiment(workload, configuration: str, *,
                              steps: Optional[int] = None,
                              cost_model: Optional[CostModel] = None,
                              sorting_config: Optional[SortingPolicyConfig] = None,
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
    cost_model = cost_model if cost_model is not None else CostModel()
    strategy = make_strategy(configuration, sorting_config=sorting_config,
                             cost_model=cost_model)
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

    timing = cost_model.timing(session.deposition_counters)
    shape_order = getattr(workload, "shape_order", session.config.shape_order)
    return ExperimentResult(
        configuration=configuration,
        ppc=getattr(workload, "ppc", 0),
        shape_order=shape_order,
        num_particles=session.num_particles,
        steps=n_steps,
        timing=timing,
        wall_seconds=wall,
        # the coarse STAGES buckets (breakdown.seconds) — NOT the
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


def sweep_configurations(workload, configurations: Iterable[str], *,
                         steps: Optional[int] = None,
                         cost_model: Optional[CostModel] = None,
                         sorting_config: Optional[SortingPolicyConfig] = None,
                         scramble: bool = True,
                         warmup_steps: int = 1,
                         cache=None,
                         jobs: int = 1) -> Dict[str, ExperimentResult]:
    """Run several configurations on the same workload definition.

    The sweep routes through the campaign layer
    (:mod:`repro.analysis.campaign`): pass ``cache`` (a
    :class:`~repro.analysis.cache.ResultCache`) to replay previously
    computed cells from disk and ``jobs`` to execute cache misses over a
    process pool.  ``workload`` must be a builder of one of the
    families in :data:`repro.workloads.FAMILIES` (a :class:`TypeError`
    otherwise).
    """
    # imported here: campaign builds specs on top of this module's
    # run_deposition_experiment, so a top-level import would be circular
    from repro.analysis.campaign import Campaign

    campaign = Campaign.from_grid(
        [workload], list(configurations), steps=steps,
        warmup_steps=warmup_steps, scramble=scramble,
        sorting_config=sorting_config, cost_model=cost_model,
        cache=cache, jobs=jobs,
    )
    return campaign.run().by_configuration()


def run_simulation_experiment(workload, *, steps: Optional[int] = None
                              ) -> Session:
    """Run the plain (reference-kernel) simulation loop of a workload.

    Returns the finished :class:`Session`; its ``breakdown`` attribute
    holds the per-stage wall-clock seconds used for the Figure-1 style
    runtime breakdown.
    """
    # the context manager releases the executor's worker pools even when
    # the run raises; they are recreated lazily if the caller steps the
    # returned session further
    with Session.from_workload(workload) as session:
        n_steps = workload.max_steps if steps is None else steps
        session.run_all(n_steps)
    return session
