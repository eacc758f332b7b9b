"""The three simulation workloads.

``uniform-ref``   reference deposition on many small tiles: dispatch-bound,
                  ``repro.core`` idle; the plain single-threaded baseline.
``uniform-mpic``  the paper's Table 2 point (QSP, PPC 128) under
                  ``MatrixPIC (FullOpt)``: two dense tiles, kernel-bound.
``lwfa-mpic``     the same strategy with a moving window and a laser:
                  tile populations change every step, so the incremental
                  sorter rebuilds — sorter-bound.

Everything is driven through :class:`repro.api.Session`; layers are
timed from outside (pipeline hooks, wrapped ``strategy.sorter`` /
``strategy.kernel`` methods) and counted through the session's own
telemetry.
"""

from __future__ import annotations

import os
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api import Session
from repro.baselines.configs import make_strategy
from repro.config import ExecutionConfig
from repro.core.counting_sort import counting_sort_permutation
from repro.core.gpma import GappedPMA
from repro.hardware.cost_model import CostModel
from repro.hardware.counters import KernelCounters
from repro.pic.deposition.base import prepare_tile_data, scatter_tile_currents
from repro.pic.deposition.reference import deposit_reference
from repro.pic.gather import gather_fields_for_tile
from repro.pic.grid import Grid, apply_grid_geometry, grid_geometry
from repro.workloads.lwfa import LWFAWorkload
from repro.workloads.uniform import UniformPlasmaWorkload

from bench.harness import (
    Result,
    RunFailed,
    Span,
    SpeedProbe,
    Tracer,
    percentile,
    scratch_directory,
    seconds_per_op,
    state_digest,
    write_trace,
)

#: steps run and discarded before any window: the first step of a sorted
#: strategy pays the initial global sort, the second the cold caches
WARMUP_STEPS = 2
#: sessions built per run; ``setup_s`` is the median
SETUP_REPEATS = 5
#: the published Table 2 deposition-kernel speed-up at QSP / PPC 128
PAPER_TABLE2_SPEEDUP = 8.7
#: save/restore round trips timed on ``lwfa-mpic``
CKPT_REPEATS = 5
#: seconds per stage call by which a harness span may exceed the
#: library's own stage timer on top of 2 % (measured: 3-25 us)
HOOK_ALLOWANCE = 1.0e-4

#: shares of ``--seconds`` the traced pass gives to its parts; the
#: remainder is left for replays, checkpoints and gates
UNTRACED_SHARE = 0.25
TRACED_SHARE = 0.40
SIDE_SHARE = 0.12

STAGES = ("gather_push", "migrate", "moving_window", "deposit", "laser",
          "solve", "boundary")


@dataclass(frozen=True)
class SimWorkload:
    name: str
    builder: type
    params: Dict[str, Any]
    #: a few hundred times less work, for ``--smoke``
    smoke_params: Dict[str, Any]
    #: ``make_strategy`` name, or None for the reference deposition
    strategy: Optional[str]
    #: steps after warm-up over which counters, modelled seconds and the
    #: state digest are taken; fixed, so they repeat exactly however
    #: many steps the time box allows
    counted_steps: int
    #: the traced pass also runs it on 2 thread shards and 2 subdomains
    exec_domain_side_runs: bool = False
    #: the inputs are a published point: report the model's distance to it
    paper_point: bool = False
    #: the traced pass ends with save/restore round trips
    checkpoints: bool = False

    def build(self, seed: int, smoke: bool, **overrides: Any) -> Any:
        params = dict(self.smoke_params if smoke else self.params)
        params.update(overrides)
        return self.builder(seed=seed, **params)


WORKLOADS = {
    workload.name: workload for workload in (
        SimWorkload(
            "uniform-ref", UniformPlasmaWorkload,
            dict(n_cell=(16, 16, 16), tile_size=(4, 4, 4), ppc=8,
                 shape_order=1),
            dict(n_cell=(8, 8, 8), tile_size=(4, 4, 4), ppc=8,
                 shape_order=1),
            strategy=None, counted_steps=40, exec_domain_side_runs=True),
        SimWorkload(
            "uniform-mpic", UniformPlasmaWorkload,
            dict(n_cell=(8, 8, 16), tile_size=(8, 8, 8), ppc=128,
                 shape_order=3),
            dict(n_cell=(8, 8, 16), tile_size=(8, 8, 8), ppc=8,
                 shape_order=3),
            strategy="MatrixPIC (FullOpt)", counted_steps=4,
            paper_point=True),
        SimWorkload(
            "lwfa-mpic", LWFAWorkload,
            dict(n_cell=(16, 16, 64), tile_size=(8, 8, 16), ppc=8),
            dict(n_cell=(8, 8, 32), tile_size=(8, 8, 16), ppc=8),
            strategy="MatrixPIC (FullOpt)", counted_steps=25,
            checkpoints=True),
    )
}


# ----------------------------------------------------------------------
# sessions and windows
# ----------------------------------------------------------------------

def open_session(builder: Any, strategy_name: Optional[str],
                 observe: bool = False) -> Tuple[Session, Any]:
    """Build session, load plasma, scramble: what ``setup_s`` times."""
    strategy = make_strategy(strategy_name) if strategy_name else None
    session = Session.from_workload(builder, deposition=strategy,
                                    observe=True if observe else None)
    if hasattr(builder, "scramble_particles"):
        builder.scramble_particles(session.simulation)
    return session, strategy


def fields_finite(session: Session) -> bool:
    return all(bool(np.isfinite(array).all())
               for array in session.grid.field_arrays().values())


def timed_step(session: Session, result: Result) -> float:
    """One ``session.step()``, accounted as one operation."""
    index = session.step_index
    start = time.perf_counter()
    try:
        session.step()
    except Exception:  # reported as a failed operation, not a crash
        result.operation(False, f"step {index} raised: "
                                f"{traceback.format_exc(limit=4)}")
        raise RunFailed from None
    seconds = time.perf_counter() - start
    if not result.operation(fields_finite(session),
                            f"step {index} left a non-finite field"):
        raise RunFailed
    return seconds


def warm_up(session: Session, result: Result) -> None:
    for _ in range(WARMUP_STEPS):
        timed_step(session, result)


@dataclass
class Window:
    """A measured run of steps."""

    #: seconds per step at the machine's reference speed
    calibrated: List[float] = field(default_factory=list)
    particle_steps: int = 0
    #: particle-steps of the first ``counted`` steps
    counted_particle_steps: int = 0

    @property
    def steps(self) -> int:
        return len(self.calibrated)

    @property
    def step_s(self) -> float:
        return statistics.median(self.calibrated)

    @property
    def rate(self) -> float:
        return self.particle_steps / sum(self.calibrated)


def run_window(session: Session, result: Result, probe: SpeedProbe,
               budget: float, counted: int,
               tracer: Optional[Tracer] = None,
               at_counted: Optional[Callable[[], None]] = None) -> Window:
    """Step until ``budget`` seconds have passed and at least
    ``counted`` steps are done; ``at_counted`` fires after step
    ``counted``, outside any timed region."""
    window = Window()
    deadline = time.perf_counter() + budget
    while window.steps < counted or time.perf_counter() < deadline:
        factor = probe.factor()
        if tracer is not None:
            tracer.op = window.steps
            tracer.begin("step")
        try:
            seconds = timed_step(session, result)
        finally:
            if tracer is not None:
                tracer.end("step")
        window.calibrated.append(seconds * factor)
        window.particle_steps += session.num_particles
        if window.steps == counted:
            window.counted_particle_steps = window.particle_steps
            if at_counted is not None:
                at_counted()
    return window


def reset_counters(session: Session) -> None:
    """Start counting at the first measured step, as the library's own
    experiment runner does after its warm-up."""
    session.simulation.deposition_counters = KernelCounters()
    session.breakdown.reset()
    if session.telemetry.enabled:
        session.telemetry.reset()


# ----------------------------------------------------------------------
# gates
# ----------------------------------------------------------------------

def scratch_grid(session: Session) -> Grid:
    """An empty grid with the session's live corners (the moving window
    advances them past the configured ones)."""
    grid = Grid(session.grid.config)
    return apply_grid_geometry(grid, grid_geometry(session.grid))


def current_error(grid: Grid, reference: Grid) -> float:
    """Largest difference of a J component, over that component's peak."""
    worst = 0.0
    for name in ("jx", "jy", "jz"):
        expected = getattr(reference, name)
        scale = float(np.abs(expected).max()) or 1.0
        worst = max(worst, float(
            np.abs(getattr(grid, name) - expected).max()) / scale)
    return worst


def reference_current(session: Session) -> Grid:
    """The reference deposition of the session's particles as they are."""
    reference = scratch_grid(session)
    for container in session.containers:
        deposit_reference(reference, container, session.config.shape_order)
    return reference


def gate_kernel_current(session: Session, strategy: Any, result: Result
                        ) -> None:
    """The strategy's kernel deposits the reference J of the final state.

    The particles are first re-tiled to the final grid: the moving
    window advances the origin after ``migrate`` has run, and the
    tile-local kernels deposit a particle left in its old tile into a
    clamped cell (``core.deposit.j_rel_err`` reports that as-run error;
    see the README's findings).  Re-tiled, every kernel must agree.
    """
    for container in session.containers:
        container.redistribute(session.grid)
    mine = scratch_grid(session)
    order = session.config.shape_order
    for container in session.containers:
        for tile in container.nonempty_tiles():
            strategy.kernel.deposit_tile(mine, tile, container.charge,
                                         order, KernelCounters())
    worst = current_error(mine, reference_current(session))
    result.gate("kernel_matches_reference", worst <= 1.0e-10,
                f"max relative difference {worst:.3e}")


# ----------------------------------------------------------------------
# the untraced pass: end-to-end metrics
# ----------------------------------------------------------------------

def untraced_pass(workload: SimWorkload, result: Result, probe: SpeedProbe,
                  seed: int, seconds: float, smoke: bool) -> None:
    builder = workload.build(seed, smoke)
    counted = 2 if smoke else workload.counted_steps
    setups: List[float] = []
    session: Optional[Session] = None
    for _ in range(SETUP_REPEATS):
        if session is not None:
            session.shutdown()
        factor = probe.measure()
        start = time.perf_counter()
        session, strategy = open_session(builder, workload.strategy)
        setups.append((time.perf_counter() - start) * factor)
    result.timing("setup_s", setups, clock="calibrated")
    with session:
        warm_up(session, result)
        window = run_window(
            session, result, probe, seconds, counted,
            at_counted=lambda: result.facts.update(
                digest=state_digest(session)))
        result.facts.update(steps=window.steps,
                            counted_steps=counted,
                            particles=session.num_particles)
        if strategy is not None:
            gate_kernel_current(session, strategy, result)
    result.timing("op_s", window.calibrated, clock="calibrated")
    result.value("work_per_s", window.rate, "calibrated",
                 n=window.steps)


# ----------------------------------------------------------------------
# the traced pass: per-layer metrics
# ----------------------------------------------------------------------

class SortCounts:
    """Counts taken where the sorter is called."""

    def __init__(self) -> None:
        self.visited_particles = 0
        self.moved_particles = 0

    def after_update(self, args: tuple, stats: Any) -> None:
        # incremental_update_tile(grid, tile, counters) -> StepSortStats
        self.visited_particles += args[1].num_particles
        self.moved_particles += stats.moved_particles


def instrument(tracer: Tracer, session: Session, strategy: Any
               ) -> SortCounts:
    """Put a span around every boundary reachable from outside."""
    session.pipeline.add_pre_hook(
        lambda stage, ctx: tracer.begin("stage." + stage.name))
    session.pipeline.add_post_hook(
        lambda stage, ctx, seconds: tracer.end("stage." + stage.name))
    counts = SortCounts()
    if strategy is not None:
        tracer.wrap(strategy.sorter, "incremental_update_tile",
                    "core.sort.update", observe=counts.after_update)
        tracer.wrap(strategy.sorter, "global_sort_tile",
                    "core.sort.global_sort")
        tracer.wrap(strategy.kernel, "deposit_tile",
                    "core.kernel.deposit_tile")
    return counts


def traced_pass(workload: SimWorkload, result: Result, probe: SpeedProbe,
                seed: int, seconds: float, smoke: bool) -> None:
    builder = workload.build(seed, smoke)
    counted = 2 if smoke else workload.counted_steps
    cost_model = CostModel()

    # the same inputs with nothing attached: the base of the overhead,
    # of the side-run ratios and of the traced == untraced digest gate
    plain = plain_run(builder, workload.strategy, result, probe,
                      UNTRACED_SHARE * seconds, counted)

    tracer = Tracer()
    session, strategy = open_session(builder, workload.strategy,
                                     observe=True)
    counted_facts: Dict[str, Any] = {}

    def at_counted() -> None:
        counters = session.simulation.deposition_counters
        counted_facts.update(
            digest=state_digest(session),
            telemetry=session.telemetry.snapshot(),
            timing=cost_model.timing(counters),
            effective_flops=counters.effective_flops,
            visited=sort_counts.visited_particles,
            moved=sort_counts.moved_particles,
            fallback_tiles=getattr(strategy, "fallback_tiles", 0),
            j_rel_err=current_error(session.grid,
                                    reference_current(session)),
        )
        if workload.checkpoints:
            result.value("ckpt.bytes", checkpoint_bytes(session), "count")

    with session:
        warm_up(session, result)
        reset_counters(session)
        sort_counts = instrument(tracer, session, strategy)
        window = run_window(session, result, probe, TRACED_SHARE * seconds,
                            counted, tracer=tracer, at_counted=at_counted)
        breakdown = session.breakdown.stage_seconds
        spans = tracer.spans()
        ops = list(range(window.steps))

        result.gate("traced_equals_untraced",
                    counted_facts["digest"] == plain.digest,
                    "state digests differ at the counted step")
        pipeline_metrics(result, spans, ops, counted, breakdown)
        pic_metrics(result, session, counted_facts["telemetry"], counted)
        if strategy is not None:
            core_metrics(result, session, strategy, spans, ops, counted,
                         counted_facts)
        write_trace(result, tracer, workload.name)
        if workload.checkpoints:
            ckpt_metrics(result, session)
        if strategy is not None:
            gate_kernel_current(session, strategy, result)

    result.value("obs.trace_overhead",
                 window.step_s / plain.window.step_s - 1.0, "calibrated",
                 n=window.steps)
    result.facts.update(
        steps=window.steps, counted_steps=counted,
        digest=counted_facts["digest"],
        counters=counted_facts["telemetry"])

    if strategy is not None:
        baseline = plain_run(builder, "Baseline", result, probe,
                             SIDE_SHARE * seconds, counted)
        hardware_metrics(result, workload, window, counted_facts, baseline)
        result.value("analysis.wall_vs_baseline",
                     plain.window.step_s / baseline.window.step_s,
                     "calibrated", n=baseline.window.steps)
    if workload.exec_domain_side_runs:
        exec_domain_metrics(result, workload, probe, seed, smoke, seconds,
                            counted, plain)


@dataclass
class PlainRun:
    """An uninstrumented run of one configuration; everything but the
    window is taken at the counted step."""

    window: Window = field(default_factory=Window)
    digest: str = ""
    #: modelled deposition timing (empty without an instrumented strategy)
    timing: Any = None
    halo_exchanges: float = 0.0


def plain_run(builder: Any, strategy_name: Optional[str], result: Result,
              probe: SpeedProbe, budget: float, counted: int,
              observe: bool = False) -> PlainRun:
    session, _strategy = open_session(builder, strategy_name,
                                      observe=observe)
    run = PlainRun()

    def at_counted() -> None:
        run.digest = state_digest(session)
        run.timing = CostModel().timing(
            session.simulation.deposition_counters)
        run.halo_exchanges = session.telemetry.snapshot().get(
            "domain.halo_exchanges", 0.0)

    with session:
        warm_up(session, result)
        reset_counters(session)
        run.window = run_window(session, result, probe, budget, counted,
                                at_counted=at_counted)
    return run


def pipeline_metrics(result: Result, spans: List[Span], ops: List[int],
                     counted: int, breakdown: Dict[str, float]) -> None:
    steps = seconds_per_op(spans, ops, lambda s: s.name == "step")
    in_stages = seconds_per_op(
        spans, ops, lambda s: s.name.startswith("stage."))
    for stage in STAGES:
        name = "stage." + stage
        result.timing(f"pipeline.stage.{stage}_s",
                    seconds_per_op(spans, ops, lambda s: s.name == name))
    result.timing("pipeline.self_s",
                [step - inside for step, inside in zip(steps, in_stages)])
    result.value("pipeline.step_p90_s", percentile(steps, 0.9), "wall",
                 n=len(steps))
    result.value("pipeline.stage_calls", sum(
        1 for s in spans if s.name.startswith("stage.")
        and s.op < counted), "count")

    # self-consistency: the harness and the library time the same stages.
    # Between the two clocks sit the post-stage hooks registered before
    # ours (the breakdown's, and the telemetry's, which snapshots its
    # counters after the last stage): allowed for per call, so that the
    # 2 % is what binds on every stage long enough to matter
    total = sum(steps)
    for stage, seconds in breakdown.items():
        name = "stage." + stage
        mine = sum(s.seconds for s in spans if s.name == name)
        result.gate(
            f"stage_span_agrees.{stage}",
            abs(mine - seconds) <= 0.02 * seconds + HOOK_ALLOWANCE * len(ops),
            f"harness {mine:.6f} s, breakdown {seconds:.6f} s")
    result.gate("stages_cover_step", sum(in_stages) >= 0.95 * total,
                f"stages {sum(in_stages):.6f} s of steps {total:.6f} s")


def pic_metrics(result: Result, session: Session,
                telemetry: Dict[str, float], counted: int) -> None:
    pushed = telemetry.get("particles.pushed", 0.0)
    migrated = telemetry.get("particles.migrated", 0.0)
    tiles = telemetry.get("tiles.deposited", 0.0)
    result.value("pic.particles_pushed", pushed, "count")
    result.value("pic.tiles_deposited", tiles, "count")
    result.value("pic.particles_migrated", migrated, "count")
    result.value("pic.migrated_share", migrated / pushed, "count")
    result.value("pic.tiles_per_step", tiles / counted, "count")

    # replays of the per-tile entry points on the final state
    order = session.config.shape_order
    scratch = scratch_grid(session)
    gathers, deposits = [], []
    for container in session.containers:
        for tile in container.nonempty_tiles():
            start = time.perf_counter()
            gather_fields_for_tile(session.grid, tile, order)
            gathers.append(time.perf_counter() - start)
            start = time.perf_counter()
            data = prepare_tile_data(scratch, tile, container.charge, order)
            scatter_tile_currents(scratch, data)
            deposits.append(time.perf_counter() - start)
    result.timing("pic.gather.tile_s", gathers)
    result.timing("pic.deposit.tile_s", deposits)


def core_metrics(result: Result, session: Session, strategy: Any,
                 spans: List[Span], ops: List[int], counted: int,
                 counted_facts: Dict[str, Any]) -> None:
    def named(name: str) -> Callable[[Span], bool]:
        return lambda s: s.name == name

    result.timing("core.sort.update_s",
                seconds_per_op(spans, ops, named("core.sort.update")))
    result.timing("core.sort.update_self_s",
                seconds_per_op(spans, ops, named("core.sort.update"),
                               self_time=True))
    result.timing("core.sort.global_sort_s",
                seconds_per_op(spans, ops, named("core.sort.global_sort")))
    result.timing("core.kernel.deposit_tile_s",
                seconds_per_op(spans, ops,
                               named("core.kernel.deposit_tile")))
    result.timing("core.framework.self_s",
                seconds_per_op(spans, ops, named("stage.deposit"),
                               self_time=True))

    prefix = [s for s in spans if s.op < counted]
    visits = sum(1 for s in prefix if s.name == "core.sort.update")
    sorts = [s for s in prefix if s.name == "core.sort.global_sort"]
    inside = sum(1 for s in sorts
                 if spans[s.parent].name == "core.sort.update")
    result.value("core.sort.tile_visits", visits, "count")
    result.value("core.sort.global_sorts", inside, "count")
    result.value("core.sort.policy_global_sorts", len(sorts) - inside,
                 "count")
    result.value("core.sort.incremental_share", 1.0 - inside / visits,
                 "count")
    result.value("core.sort.moved_share",
                 counted_facts["moved"] / counted_facts["visited"], "count")
    result.value("core.kernel.fallback_tiles",
                 counted_facts["fallback_tiles"], "count")
    result.value("core.deposit.j_rel_err", counted_facts["j_rel_err"],
                 "count")

    # replays of the sorter's two building blocks on the final state
    builds, permutations = [], []
    gap = strategy.sorting_config.gap_fraction
    for container in session.containers:
        for tile in container.nonempty_tiles():
            cells = tile.local_cell_ids(session.grid)
            start = time.perf_counter()
            counting_sort_permutation(cells, tile.num_cells)
            permutations.append(time.perf_counter() - start)
            start = time.perf_counter()
            GappedPMA(tile.num_cells, gap_fraction=gap).build(cells)
            builds.append(time.perf_counter() - start)
    result.timing("core.counting_sort.permutation_s", permutations)
    result.timing("core.gpma.build_s", builds)


def hardware_metrics(result: Result, workload: SimWorkload, window: Window,
                     counted_facts: Dict[str, Any], baseline: PlainRun
                     ) -> None:
    """LX2 seconds of the counted steps; exact for a given seed."""
    timing = counted_facts["timing"]
    particle_steps = window.counted_particle_steps
    base_particle_steps = baseline.window.counted_particle_steps
    mine = timing.total / particle_steps
    base = baseline.timing.total / base_particle_steps
    result.value("hardware.modelled_s_per_pstep", mine, "modelled")
    result.value("hardware.modelled_baseline_s_per_pstep", base, "modelled")
    result.value("hardware.modelled_speedup", base / mine, "modelled")
    result.value("hardware.modelled_sort_share",
                 timing.sort / timing.total, "modelled")
    result.value("hardware.effective_flops_per_particle",
                 counted_facts["effective_flops"] / particle_steps,
                 "modelled")
    if workload.paper_point:
        # deposition-kernel seconds of the same counted steps on the
        # same inputs, Baseline over MatrixPIC, against Table 2
        speedup = baseline.timing.total / timing.total
        result.value("hardware.paper_rel_err",
                     abs(speedup - PAPER_TABLE2_SPEEDUP)
                     / PAPER_TABLE2_SPEEDUP, "modelled")


def exec_domain_metrics(result: Result, workload: SimWorkload,
                        probe: SpeedProbe, seed: int, smoke: bool,
                        seconds: float, counted: int, serial: PlainRun
                        ) -> None:
    """Side runs: the same problem on 2 thread shards, then also split
    into 2 subdomains.  They move no end-to-end metric; they are the
    base line for executor work."""
    threads = ExecutionConfig(backend="threads", num_shards=2)
    threads2 = plain_run(workload.build(seed, smoke, execution=threads),
                         None, result, probe, SIDE_SHARE * seconds, counted)
    d2 = plain_run(workload.build(seed, smoke, execution=threads,
                                  domains=(2, 1, 1)),
                   None, result, probe, SIDE_SHARE * seconds, counted,
                   observe=True)
    result.timing("exec.threads2.step_s", threads2.window.calibrated,
                clock="calibrated")
    result.value("exec.threads2.speedup",
                 serial.window.step_s / threads2.window.step_s,
                 "calibrated", n=threads2.window.steps)
    result.timing("domain.d2.step_s", d2.window.calibrated,
                clock="calibrated")
    result.value("domain.d2.overhead",
                 d2.window.step_s / threads2.window.step_s, "calibrated",
                 n=d2.window.steps)
    result.value("domain.halo_exchanges_per_step",
                 d2.halo_exchanges / counted, "count")
    parity = d2.digest == threads2.digest
    result.value("domain.parity", float(parity), "count")
    result.gate("domain_parity", parity,
                "decomposed state differs from the 2-shard state")


def checkpoint_bytes(session: Session) -> int:
    """Size of a snapshot of the session as it is."""
    with scratch_directory("ckpt-") as directory:
        return os.path.getsize(session.save(f"{directory}/state.ckpt"))


def ckpt_metrics(result: Result, session: Session) -> None:
    with scratch_directory("ckpt-") as directory:
        path = f"{directory}/state.ckpt"
        before = state_digest(session)
        saves, restores = [], []
        for _ in range(CKPT_REPEATS):
            start = time.perf_counter()
            session.save(path)
            saves.append(time.perf_counter() - start)
            start = time.perf_counter()
            session.restore(path)
            restores.append(time.perf_counter() - start)
        result.timing("ckpt.save_s", saves)
        result.timing("ckpt.restore_s", restores)
        result.gate("ckpt_round_trip", state_digest(session) == before,
                    "state changed across save/restore")


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool
        ) -> Result:
    result = Result()
    try:
        (traced_pass if trace else untraced_pass)(
            WORKLOADS[name], result, SpeedProbe(), seed, seconds, smoke)
    except RunFailed:
        pass  # counted where it happened; the record says which step
    return result
