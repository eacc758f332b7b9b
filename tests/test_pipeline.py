"""The composable step pipeline (:mod:`repro.pipeline`).

Two contracts are pinned here:

1. **Bitwise parity with the pre-refactor loops.**  The hand-wired step
   bodies that used to live in ``Simulation.step`` and the (since
   removed) ``DomainRuntime.step_simulation`` are replicated inline below
   (``legacy_global_step`` / ``legacy_domain_step``), and a hypothesis
   suite asserts that pipeline-routed runs are bit-identical to them —
   fields, J/rho and the energy history — over random (backend, shards,
   domain split) triples.
2. **The stage graph mechanics**: stage-set selection, stage ordering,
   list surgery (insert/replace/remove), pre/post hook invocation and
   the per-stage wall-time flow into :class:`RuntimeBreakdown`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    ExecutionConfig,
    GridConfig,
    SimulationConfig,
    SpeciesConfig,
)
from repro.pic.simulation import ReferenceDeposition, Simulation
from repro.pipeline import (
    DOMAIN_STAGE_SET,
    GLOBAL_STAGE_SET,
    BreakdownTimingHook,
    DiagnosticsStage,
    Stage,
    StageContext,
    StepPipeline,
    domain_stages,
    global_stages,
    stage_set_for,
)
from repro.workloads.lwfa import LWFAWorkload
from repro.workloads.uniform import UniformPlasmaWorkload

ALL_COMPONENTS = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz", "rho")

GLOBAL_STAGE_NAMES = ("gather_push", "migrate", "moving_window", "deposit",
                      "laser", "solve", "boundary")
DOMAIN_STAGE_NAMES = ("sync_frame", "halo_exchange", "gather_push", "migrate",
                      "moving_window", "deposit", "laser", "solve", "boundary")


# ----------------------------------------------------------------------
# the pre-refactor step bodies, replicated verbatim (minus the timing
# blocks, which never touched the numerics)
# ----------------------------------------------------------------------

def legacy_global_step(sim: Simulation) -> None:
    """The hand-wired single-domain loop as it was before the pipeline."""
    grid = sim.grid
    for container in sim.containers:
        sim.pusher.push(container, grid, sim.dt, executor=sim.executor)
    for container in sim.containers:
        container.apply_boundary_conditions(grid, executor=sim.executor)
        container.redistribute(grid, executor=sim.executor)
    sim.moving_window.advance(grid, sim.containers, sim.dt, sim.step_index)
    grid.zero_currents()
    for container in sim.containers:
        counters = sim.deposition.run_step(
            grid, container, sim.config.shape_order, sim.step_index,
            executor=sim.executor,
        )
        if counters is not None:
            sim.deposition_counters.merge(counters)
    if sim.laser is not None:
        sim.laser.inject(grid, sim.time, sim.dt)
    if sim.solver is not None:
        sim.solver.step(sim.dt)
        sim.boundaries.apply(grid)
    sim.breakdown.finish_step()
    sim.step_index += 1


def legacy_domain_step(sim: Simulation) -> None:
    """The hand-wired decomposed loop as it was before the pipeline."""
    from repro.domain.halo import EM_FIELDS

    domain = sim.domain
    frame = sim.grid
    domain.sync_from_frame_once(frame)
    domain.halo.exchange(EM_FIELDS, mode="boundary")
    for container in sim.containers:
        domain.push(sim, container)
    for container in sim.containers:
        container.apply_boundary_conditions(frame, executor=sim.executor)
        container.redistribute(frame, executor=sim.executor,
                               move_recorder=domain.migration.recorder)
    sim.moving_window.advance(frame, sim.containers, sim.dt, sim.step_index)
    domain.zero_currents()
    if isinstance(sim.deposition, ReferenceDeposition):
        for container in sim.containers:
            domain.deposit_reference(sim, container)
    else:
        frame.zero_currents()
        for container in sim.containers:
            counters = sim.deposition.run_step(
                frame, container, sim.config.shape_order, sim.step_index,
                executor=sim.executor,
            )
            if counters is not None:
                sim.deposition_counters.merge(counters)
        domain.pull_currents_from_frame(frame)
    if sim.laser is not None:
        domain.inject_laser(sim)
    if domain.solvers:
        domain.solve(sim)
        domain.apply_boundaries(sim)
    sim.breakdown.finish_step()
    sim.step_index += 1


def legacy_step(sim: Simulation) -> None:
    if sim.domain is not None:
        legacy_domain_step(sim)
    else:
        legacy_global_step(sim)


def uniform_workload(domains=(1, 1, 1), backend="serial", shards=1,
                     steps=2, order=1):
    return UniformPlasmaWorkload(
        n_cell=(8, 8, 8), tile_size=(4, 4, 4), ppc=8, shape_order=order,
        max_steps=steps, domains=domains,
        execution=ExecutionConfig(backend=backend, num_shards=shards),
    )


def run_pair(workload, steps):
    """Run twin simulations: one pipeline-routed, one legacy-inlined."""
    sim_pipe = workload.build_simulation()
    sim_ref = workload.build_simulation()
    try:
        sim_pipe._record_energy()
        sim_ref._record_energy()
        for _ in range(steps):
            sim_pipe.step()
            sim_pipe._record_energy()
            legacy_step(sim_ref)
            sim_ref._record_energy()
        if sim_pipe.domain is not None:
            sim_pipe.domain.assemble(sim_pipe.grid)
            sim_ref.domain.assemble(sim_ref.grid)
        return sim_pipe, sim_ref
    finally:
        sim_pipe.shutdown()
        sim_ref.shutdown()


def assert_bitwise_equal(sim_a: Simulation, sim_b: Simulation) -> None:
    for name in ALL_COMPONENTS:
        a, b = getattr(sim_a.grid, name), getattr(sim_b.grid, name)
        assert np.array_equal(a, b), f"{name} differs from the legacy loop"
    history_a = [(r.step, r.field_energy, r.kinetic_energy)
                 for r in sim_a.energy.history]
    history_b = [(r.step, r.field_energy, r.kinetic_energy)
                 for r in sim_b.energy.history]
    assert history_a == history_b


# ----------------------------------------------------------------------
# bitwise parity: pipeline vs. the pre-refactor loops
# ----------------------------------------------------------------------

class TestLegacyParity:
    @settings(max_examples=10, deadline=None)
    @given(
        backend=st.sampled_from(["serial", "threads"]),
        shards=st.integers(min_value=1, max_value=4),
        domains=st.sampled_from([
            (1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 1, 2),
        ]),
    )
    def test_random_backend_shards_split_triples(self, backend, shards,
                                                 domains):
        """Pipeline == legacy, bit for bit, over random execution triples."""
        workload = uniform_workload(domains=domains, backend=backend,
                                    shards=shards)
        sim_pipe, sim_ref = run_pair(workload, steps=2)
        assert stage_set_for(sim_pipe) == (
            DOMAIN_STAGE_SET if domains != (1, 1, 1) else GLOBAL_STAGE_SET)
        assert_bitwise_equal(sim_pipe, sim_ref)

    def test_lwfa_parity_domain(self):
        """Laser + absorbing walls + moving window, decomposed."""
        workload = LWFAWorkload(
            n_cell=(8, 8, 32), tile_size=(4, 4, 8), ppc=1, max_steps=6,
            domains=(1, 1, 2),
            execution=ExecutionConfig(backend="threads", num_shards=2),
        )
        sim_pipe = workload.build_simulation()
        sim_ref = workload.build_simulation()
        try:
            for _ in range(6):
                sim_pipe.step()
                legacy_step(sim_ref)
            sim_pipe.domain.assemble(sim_pipe.grid)
            sim_ref.domain.assemble(sim_ref.grid)
            for name in ALL_COMPONENTS:
                assert np.array_equal(getattr(sim_pipe.grid, name),
                                      getattr(sim_ref.grid, name)), name
        finally:
            sim_pipe.shutdown()
            sim_ref.shutdown()

    def test_instrumented_strategy_parity_decomposed(self):
        """Non-reference strategies keep the global-frame fallback path."""
        from repro.baselines.configs import make_strategy

        def build(strategy):
            workload = uniform_workload(domains=(2, 1, 1))
            return Simulation(workload.build_config(), deposition=strategy)

        sim_pipe = build(make_strategy("Baseline"))
        sim_ref = build(make_strategy("Baseline"))
        for _ in range(2):
            sim_pipe.step()
            legacy_step(sim_ref)
        sim_pipe.domain.assemble(sim_pipe.grid)
        sim_ref.domain.assemble(sim_ref.grid)
        for name in ALL_COMPONENTS:
            assert np.array_equal(getattr(sim_pipe.grid, name),
                                  getattr(sim_ref.grid, name)), name
        assert (sim_pipe.deposition_counters.combined().total_events()
                == sim_ref.deposition_counters.combined().total_events())


# ----------------------------------------------------------------------
# stage-set selection and ordering
# ----------------------------------------------------------------------

class TestStageSets:
    def test_global_stage_order(self):
        sim = uniform_workload().build_simulation()
        assert sim.pipeline.name == GLOBAL_STAGE_SET
        assert sim.pipeline.stage_names() == GLOBAL_STAGE_NAMES

    def test_domain_stage_order(self):
        sim = uniform_workload(domains=(2, 1, 1)).build_simulation()
        assert sim.pipeline.name == DOMAIN_STAGE_SET
        assert sim.pipeline.stage_names() == DOMAIN_STAGE_NAMES

    def test_executor_sharded_path_shares_the_global_stage_set(self):
        serial = uniform_workload().build_simulation()
        sharded = uniform_workload(backend="threads",
                                   shards=4).build_simulation()
        try:
            assert (serial.pipeline.stage_names()
                    == sharded.pipeline.stage_names())
            assert [type(s) for s in serial.pipeline.stages] \
                == [type(s) for s in sharded.pipeline.stages]
        finally:
            sharded.shutdown()

    def test_builder_stage_factories_match_installed_sets(self):
        assert tuple(s.name for s in global_stages()) == GLOBAL_STAGE_NAMES
        assert tuple(s.name for s in domain_stages()) == DOMAIN_STAGE_NAMES

    def test_every_stage_satisfies_the_protocol(self):
        for stage in (*global_stages(), *domain_stages(),
                      DiagnosticsStage()):
            assert isinstance(stage, Stage)
            assert stage.bucket


# ----------------------------------------------------------------------
# stage-list surgery
# ----------------------------------------------------------------------

class _NoOpStage:
    bucket = "other"

    def __init__(self, name="noop", log=None):
        self.name = name
        self.log = log if log is not None else []

    def run(self, ctx):
        self.log.append(self.name)


class TestPipelineSurgery:
    def make(self):
        sim = uniform_workload().build_simulation()
        return sim.pipeline

    def test_insert_before_and_after(self):
        pipeline = self.make()
        pipeline.insert_before("deposit", _NoOpStage("pre_deposit"))
        pipeline.insert_after("deposit", _NoOpStage("post_deposit"))
        names = pipeline.stage_names()
        index = names.index("deposit")
        assert names[index - 1] == "pre_deposit"
        assert names[index + 1] == "post_deposit"

    def test_replace_and_remove(self):
        pipeline = self.make()
        old = pipeline.replace("laser", _NoOpStage("laser"))
        assert old.name == "laser" and type(old) is not _NoOpStage
        removed = pipeline.remove("moving_window")
        assert removed.name == "moving_window"
        assert "moving_window" not in pipeline.stage_names()

    def test_duplicate_names_rejected(self):
        pipeline = self.make()
        with pytest.raises(ValueError, match="duplicate stage name"):
            pipeline.append(_NoOpStage("deposit"))

    def test_replace_failure_keeps_old_stage(self):
        pipeline = self.make()
        before = pipeline.stage_names()
        with pytest.raises(TypeError):
            pipeline.replace("laser", object())
        assert pipeline.stage_names() == before

    def test_malformed_stage_rejected(self):
        pipeline = self.make()
        with pytest.raises(TypeError, match="no usable name"):
            pipeline.append(object())
        with pytest.raises(KeyError):
            pipeline.insert_before("no_such_stage", _NoOpStage())

    def test_unknown_stage_set_still_runs_custom_stages(self):
        """A pipeline is just a stage list: custom graphs run standalone."""
        sim = uniform_workload().build_simulation()
        log = []
        pipeline = StepPipeline(
            [_NoOpStage("a", log), _NoOpStage("b", log)],
            StageContext(sim), name="custom",
        )
        pipeline.run_step()
        assert log == ["a", "b"]
        assert sim.step_index == 1


# ----------------------------------------------------------------------
# hooks and per-stage timing
# ----------------------------------------------------------------------

class TestHooks:
    def test_pre_and_post_hooks_fire_per_stage_in_order(self):
        sim = uniform_workload().build_simulation()
        events = []
        sim.pipeline.add_pre_hook(
            lambda stage, ctx: events.append(("pre", stage.name)))
        sim.pipeline.add_post_hook(
            lambda stage, ctx, seconds: events.append(("post", stage.name)))
        sim.step()
        expected = []
        for name in GLOBAL_STAGE_NAMES:
            expected += [("pre", name), ("post", name)]
        assert events == expected

    def test_post_hook_receives_wall_seconds(self):
        sim = uniform_workload().build_simulation()
        seen = []
        sim.pipeline.add_post_hook(
            lambda stage, ctx, seconds: seen.append(seconds))
        sim.step()
        assert len(seen) == len(GLOBAL_STAGE_NAMES)
        assert all(s >= 0.0 for s in seen)

    def test_remove_hook(self):
        sim = uniform_workload().build_simulation()
        calls = []

        def hook(stage, ctx):
            calls.append(stage.name)

        sim.pipeline.add_pre_hook(hook)
        sim.step()
        assert calls
        assert sim.pipeline.remove_hook(hook)
        count = len(calls)
        sim.step()
        assert len(calls) == count
        assert not sim.pipeline.remove_hook(hook)

    def test_hook_context_is_live(self):
        sim = uniform_workload().build_simulation()
        seen = []
        sim.pipeline.add_pre_hook(
            lambda stage, ctx: seen.append(
                (ctx.simulation is sim, ctx.grid is sim.grid,
                 ctx.executor is sim.executor)))
        sim.step()
        assert all(all(flags) for flags in seen)


class TestBreakdownTiming:
    def test_stage_seconds_filled_per_pipeline_stage(self):
        sim = uniform_workload().build_simulation()
        sim.run(2)
        assert set(sim.breakdown.stage_seconds) == set(GLOBAL_STAGE_NAMES)
        assert all(v >= 0.0 for v in sim.breakdown.stage_seconds.values())

    def test_buckets_are_the_sum_of_their_stages(self):
        sim = uniform_workload().build_simulation()
        sim.run(2)
        seconds = sim.breakdown.seconds
        stage = sim.breakdown.stage_seconds
        assert seconds["field_gather_push"] == pytest.approx(
            stage["gather_push"])
        assert seconds["boundary_redistribute"] == pytest.approx(
            stage["migrate"] + stage["moving_window"])
        assert seconds["current_deposition"] == pytest.approx(
            stage["deposit"])
        assert seconds["field_solve"] == pytest.approx(
            stage["laser"] + stage["solve"] + stage["boundary"])

    def test_stage_rows_and_reset(self):
        sim = uniform_workload().build_simulation()
        sim.run(1)
        rows = sim.breakdown.stage_rows()
        assert [row["stage"] for row in rows] == list(GLOBAL_STAGE_NAMES)
        assert sum(row["fraction"] for row in rows) == pytest.approx(1.0)
        sim.breakdown.reset()
        assert not sim.breakdown.stage_seconds
        assert sim.breakdown.stage_rows() == []

    def test_domain_set_times_its_own_stages(self):
        sim = uniform_workload(domains=(2, 1, 1)).build_simulation()
        sim.run(1)
        assert set(sim.breakdown.stage_seconds) == set(DOMAIN_STAGE_NAMES)

    def test_timing_hook_is_detachable(self):
        sim = uniform_workload().build_simulation()
        hooks = [h for h in sim.pipeline._post_hooks
                 if isinstance(h, BreakdownTimingHook)]
        assert len(hooks) == 1
        sim.pipeline.remove_hook(hooks[0])
        sim.step()
        assert not sim.breakdown.stage_seconds


# ----------------------------------------------------------------------
# Simulation.step takes no per-call toggles
# ----------------------------------------------------------------------

class TestStepShim:
    def make(self):
        config = SimulationConfig(
            grid=GridConfig(n_cell=(8, 8, 8), hi=(8.0e-6,) * 3),
            species=(SpeciesConfig(density=1.0e24, ppc=(1, 1, 1)),),
            max_steps=2,
        )
        return Simulation(config)

    def test_plain_step_does_not_warn(self):
        sim = self.make()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim.step()
        assert sim.step_index == 1

    def test_unknown_keywords_still_raise_type_error(self):
        sim = self.make()
        with pytest.raises(TypeError, match="unexpected keyword"):
            sim.step(dt=1.0e-15)
        with pytest.raises(TypeError, match="unexpected keyword"):
            sim.step(diagnostics=True)
        assert sim.step_index == 0
