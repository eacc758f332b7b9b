"""The composable step pipeline (:mod:`repro.pipeline`).

The stage list mechanics: the one stage list, stage ordering, stage
validation, pre-stage / post-stage / step hook invocation and the
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
from repro.pipeline import (
    BreakdownTimingHook,
    Stage,
    StepPipeline,
    global_stages,
)
from repro.workloads.uniform import UniformPlasmaWorkload

GLOBAL_STAGE_NAMES = ("gather_push", "moving_window", "migrate", "deposit",
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
        sim = uniform_workload().build_session()
        assert sim.pipeline.stage_names() == GLOBAL_STAGE_NAMES

    def test_domain_stage_order(self):
        sim = uniform_workload(domains=(2, 1, 1)).build_session()
        assert sim.pipeline.stage_names() == GLOBAL_STAGE_NAMES

    def test_executor_sharded_path_shares_the_global_stage_set(self):
        serial = uniform_workload().build_session()
        sharded = uniform_workload(backend="threads",
                                   shards=4).build_session()
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
# stage validation
# ----------------------------------------------------------------------

class _NoOpStage:
    bucket = "other"

    def __init__(self, name="noop", log=None):
        self.name = name
        self.log = log if log is not None else []

    def run(self, session):
        self.log.append(self.name)


class TestPipelineSurgery:
    def make(self):
        sim = uniform_workload().build_session()
        return sim.pipeline

    def test_duplicate_names_rejected(self):
        pipeline = self.make()
        with pytest.raises(ValueError, match="duplicate stage name"):
            pipeline.append(_NoOpStage("deposit"))
        with pytest.raises(ValueError, match="duplicate stage name"):
            StepPipeline([_NoOpStage("a"), _NoOpStage("a")],
                         pipeline.session)

    def test_malformed_stage_rejected(self):
        pipeline = self.make()
        with pytest.raises(TypeError, match="no usable name"):
            pipeline.append(object())
        with pytest.raises(TypeError, match="no run"):
            StepPipeline([type("S", (), {"name": "s", "bucket": "other"})()],
                         pipeline.session)

    def test_unknown_stage_set_still_runs_custom_stages(self):
        """A pipeline is just a stage list: custom graphs run standalone."""
        sim = uniform_workload().build_session()
        log = []
        pipeline = StepPipeline(
            [_NoOpStage("a", log), _NoOpStage("b", log)], sim)
        pipeline.run_step()
        assert log == ["a", "b"]
        assert sim.step_index == 1


# ----------------------------------------------------------------------
# hooks and per-stage timing
# ----------------------------------------------------------------------

class TestHooks:
    def test_pre_and_post_hooks_fire_per_stage_in_order(self):
        sim = uniform_workload().build_session()
        events = []
        sim.pipeline.add_pre_hook(
            lambda stage, session: events.append(("pre", stage.name)))
        sim.pipeline.add_post_hook(
            lambda stage, session, seconds:
            events.append(("post", stage.name)))
        sim.step()
        expected = []
        for name in GLOBAL_STAGE_NAMES:
            expected += [("pre", name), ("post", name)]
        assert events == expected

    def test_post_hook_receives_wall_seconds(self):
        sim = uniform_workload().build_session()
        seen = []
        sim.pipeline.add_post_hook(
            lambda stage, session, seconds: seen.append(seconds))
        sim.step()
        assert len(seen) == len(GLOBAL_STAGE_NAMES)
        assert all(s >= 0.0 for s in seen)

    def test_remove_hook(self):
        sim = uniform_workload().build_session()
        calls = []

        def hook(stage, session):
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
        sim = uniform_workload().build_session()
        seen = []
        sim.pipeline.add_pre_hook(
            lambda stage, session: seen.append(session is sim))
        sim.pipeline.add_post_hook(
            lambda stage, session, seconds: seen.append(session is sim))
        sim.pipeline.add_step_hook(
            lambda session: seen.append(session is sim))
        sim.step()
        assert len(seen) == 2 * len(GLOBAL_STAGE_NAMES) + 1 and all(seen)

    def test_step_hook_fires_once_per_completed_step(self):
        sim = uniform_workload().build_session()
        events = []
        sim.pipeline.add_post_hook(
            lambda stage, session, seconds: events.append(stage.name))
        hook = sim.pipeline.add_step_hook(
            lambda session: events.append(session.step_index))
        sim.run_all(2)
        # after the last stage and after the epilogue: the hook reads the
        # number of completed steps, not the index of the one in flight
        assert events == [*GLOBAL_STAGE_NAMES, 1, *GLOBAL_STAGE_NAMES, 2]
        assert sim.pipeline.remove_hook(hook)
        sim.step()
        assert events[-1] == "boundary"


class TestBreakdownTiming:
    def test_stage_seconds_filled_per_pipeline_stage(self):
        sim = uniform_workload().build_session()
        sim.run_all(2)
        assert set(sim.breakdown.stage_seconds) == set(GLOBAL_STAGE_NAMES)
        assert all(v >= 0.0 for v in sim.breakdown.stage_seconds.values())

    def test_buckets_are_the_sum_of_their_stages(self):
        sim = uniform_workload().build_session()
        sim.run_all(2)
        seconds = sim.breakdown.seconds
        stage = sim.breakdown.stage_seconds
        assert seconds["field_gather_push"] == pytest.approx(
            stage["gather_push"])
        assert seconds["boundary_redistribute"] == pytest.approx(
            stage["moving_window"] + stage["migrate"])
        assert seconds["current_deposition"] == pytest.approx(
            stage["deposit"])
        assert seconds["field_solve"] == pytest.approx(
            stage["laser"] + stage["solve"] + stage["boundary"])

    def test_stage_rows_and_reset(self):
        sim = uniform_workload().build_session()
        sim.run_all(1)
        rows = sim.breakdown.stage_rows()
        assert [row["stage"] for row in rows] == list(GLOBAL_STAGE_NAMES)
        assert sum(row["fraction"] for row in rows) == pytest.approx(1.0)
        sim.breakdown.reset()
        assert not sim.breakdown.stage_seconds
        assert sim.breakdown.stage_rows() == []

    def test_domain_set_times_its_own_stages(self):
        sim = uniform_workload(domains=(2, 1, 1)).build_session()
        sim.run_all(1)
        assert set(sim.breakdown.stage_seconds) == set(GLOBAL_STAGE_NAMES)

    def test_timing_hook_is_detachable(self):
        sim = uniform_workload().build_session()
        hooks = [h for h in sim.pipeline._post_hooks
                 if isinstance(h, BreakdownTimingHook)]
        assert len(hooks) == 1
        sim.pipeline.remove_hook(hooks[0])
        sim.step()
        assert not sim.breakdown.stage_seconds


# ----------------------------------------------------------------------
# Session.step takes no per-call toggles
# ----------------------------------------------------------------------

class TestStepShim:
    def make(self):
        config = SimulationConfig(
            grid=GridConfig(n_cell=(8, 8, 8), hi=(8.0e-6,) * 3),
            species=(SpeciesConfig(density=1.0e24, ppc=(1, 1, 1)),),
            max_steps=2,
        )
        return Session(config)

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
