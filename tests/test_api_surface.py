"""API-surface snapshot for the public facade and pipeline packages.

The CI ``api-surface`` job runs this module on its own: the frozen
snapshots below are the compatibility contract of ``repro.api`` and
``repro.pipeline``.  Removing or renaming a public name fails here
immediately; *adding* one is also flagged so additions are deliberate
(update the snapshot in the same commit that extends the API).
"""

from __future__ import annotations

import importlib

import pytest

#: module -> frozen public-name snapshot (keep sorted)
API_SURFACE = {
    "repro.api": (
        "Session",
        "StepResult",
    ),
    "repro.backend": (
        "ActiveKernels",
        "Array",
        "BackendConfig",
        "KERNEL_TIERS",
        "KERNEL_TIER_ENV",
        "activate",
    ),
    "repro.ckpt": (
        "CKPT_DIR_ENV",
        "CheckpointHook",
        "CorruptSnapshotError",
        "DEFAULT_CHECKPOINT_DIR",
        "LoadedSnapshot",
        "SNAPSHOT_VERSION",
        "SnapshotError",
        "SnapshotMismatchError",
        "capture_state",
        "default_checkpoint_dir",
        "latest_valid_snapshot",
        "list_snapshots",
        "read_snapshot",
        "restore_simulation",
        "restore_state",
        "save_simulation",
        "snapshot_path",
        "write_snapshot",
    ),
    "repro.obs": (
        "HealthHook",
        "MetricSet",
        "ObsConfig",
        "PhysicsHealthError",
        "TRACE_SCHEMA",
        "Telemetry",
        "TracingHook",
        "chrome_trace_events",
        "export_chrome_trace",
        "export_jsonl",
        "load_trace_events",
        "log_event",
        "summarize_trace",
        "validate_chrome_trace",
    ),
    "repro.pipeline": (
        "BreakdownTimingHook",
        "DepositStage",
        "EXTERNAL_RESOURCES",
        "EffectViolation",
        "FieldBoundaryStage",
        "FieldSolveStage",
        "GatherPushStage",
        "LaserStage",
        "MigrateStage",
        "MovingWindowStage",
        "RESOURCES",
        "STEP_CARRIED",
        "Stage",
        "StepPipeline",
        "build_pipeline",
        "check_stage_set",
        "declared_effects",
        "global_stages",
    ),
    "repro.serve": (
        "CampaignServer",
        "CellResolver",
        "DEFAULT_ROOT",
        "DEFAULT_TENANT",
        "EventBroker",
        "InFlightTable",
        "Job",
        "JobCell",
        "JobJournal",
        "JobService",
        "QUEUE_FILENAME",
        "ResultMemo",
        "ServeConfig",
        "TenantManager",
        "TenantNameError",
        "TenantNamespace",
        "WorkerPool",
        "expand_request",
        "format_sse",
        "run_server",
        "validate_tenant_name",
    ),
}

#: names the package root re-exports for the one-import experience
ROOT_EXPORTS = ("Session", "StepPipeline", "build_pipeline")


@pytest.mark.parametrize("module_name", sorted(API_SURFACE))
def test_public_surface_matches_snapshot(module_name):
    module = importlib.import_module(module_name)
    declared = getattr(module, "__all__", None)
    assert declared is not None, f"{module_name} must declare __all__"
    expected = API_SURFACE[module_name]
    assert tuple(sorted(declared)) == tuple(sorted(expected)), (
        f"{module_name} public surface drifted; if the change is "
        "deliberate, update API_SURFACE in tests/test_api_surface.py"
    )
    for name in expected:
        assert hasattr(module, name), f"{module_name}.{name} missing"


@pytest.mark.parametrize("module_name", sorted(API_SURFACE))
def test_snapshot_is_sorted(module_name):
    expected = API_SURFACE[module_name]
    assert list(expected) == sorted(expected), (
        f"keep the {module_name} snapshot sorted for reviewable diffs"
    )


def test_package_root_reexports():
    repro = importlib.import_module("repro")
    for name in ROOT_EXPORTS:
        assert name in repro.__all__
        assert hasattr(repro, name)


def test_stage_vocabulary_is_importable_from_one_place():
    """Every stage class in the builder's list is public in repro.pipeline."""
    pipeline = importlib.import_module("repro.pipeline")
    for stage in pipeline.global_stages():
        class_name = type(stage).__name__
        assert class_name in pipeline.__all__, (
            f"{class_name} is installed by the builder but not "
            "exported from repro.pipeline"
        )
        assert getattr(pipeline, class_name) is type(stage)
