"""The composable step pipeline (:mod:`repro.pipeline`).

The stage graph mechanics: the one stage list, stage ordering, list
surgery (insert/replace/remove), pre/post hook invocation and the
per-stage wall-time flow into :class:`RuntimeBreakdown`.  Bitwise step
parity across backends, shard counts and domain splits is pinned against
live code by ``tests/test_domain.py`` (``TestStepParity``,
``TestLWFAParity``, the decomposed-deposit property) and
``tests/test_ckpt.py::TestResumeParity``.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.config import (
    ExecutionConfig,
    GridConfig,
    SimulationConfig,
    SpeciesConfig,
)
from repro.pic.simulation import Simulation
from repro.pipeline import (
    BreakdownTimingHook,
    Stage,
    StageContext,
    StepPipeline,
    global_stages,
)
from repro.workloads.uniform import UniformPlasmaWorkload

GLOBAL_STAGE_NAMES = ("gather_push", "migrate", "moving_window", "deposit",
                      "laser", "solve", "boundary")


def uniform_workload(domains=(1, 1, 1), backend="serial", shards=1,
                     steps=2, order=1):
    return UniformPlasmaWorkload(
        n_cell=(8, 8, 8), tile_size=(4, 4, 4), ppc=8, shape_order=order,
        max_steps=steps, domains=domains,
        execution=ExecutionConfig(backend=backend, num_shards=shards),
    )


# ----------------------------------------------------------------------
# stage-set selection and ordering
# ----------------------------------------------------------------------

class TestStageSets:
    def test_global_stage_order(self):
        sim = uniform_workload().build_simulation()
        assert sim.pipeline.stage_names() == GLOBAL_STAGE_NAMES

    def test_domain_stage_order(self):
        sim = uniform_workload(domains=(2, 1, 1)).build_simulation()
        assert sim.pipeline.stage_names() == GLOBAL_STAGE_NAMES

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

    def test_every_stage_satisfies_the_protocol(self):
        for stage in global_stages():
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
            StageContext(sim),
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
        Session.from_simulation(sim).run_all(2)
        assert set(sim.breakdown.stage_seconds) == set(GLOBAL_STAGE_NAMES)
        assert all(v >= 0.0 for v in sim.breakdown.stage_seconds.values())

    def test_buckets_are_the_sum_of_their_stages(self):
        sim = uniform_workload().build_simulation()
        Session.from_simulation(sim).run_all(2)
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
        Session.from_simulation(sim).run_all(1)
        rows = sim.breakdown.stage_rows()
        assert [row["stage"] for row in rows] == list(GLOBAL_STAGE_NAMES)
        assert sum(row["fraction"] for row in rows) == pytest.approx(1.0)
        sim.breakdown.reset()
        assert not sim.breakdown.stage_seconds
        assert sim.breakdown.stage_rows() == []

    def test_domain_set_times_its_own_stages(self):
        sim = uniform_workload(domains=(2, 1, 1)).build_simulation()
        Session.from_simulation(sim).run_all(1)
        assert set(sim.breakdown.stage_seconds) == set(GLOBAL_STAGE_NAMES)

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
