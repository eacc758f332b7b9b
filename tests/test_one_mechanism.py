"""Structural guard: one pool supervisor, one record log, one tile
fan-out rule, one numerical extension point, one grid schema, one atomic
writer, no ambient run state — no re-growth.

Pool supervision (anything that has to know ``BrokenProcessPool``) lives
in ``repro/exec/pool.py``, record files (``write_snapshot`` with an
empty array table) in ``repro/ckpt/recordlog.py``, and the decision
whether and how to shard per-tile work (``executor.partition``,
``is_trivial``, ``TileTask``) in ``repro/exec/``.  A second
implementation of any of them starts by naming one of those things, so
naming them anywhere else under ``src/repro/`` fails here.  Per-tile
work runs in the caller's address space on every backend, so nothing
under ``src/repro/`` asks whether memory is shared, ships tile payloads
or marks a stage ``local=``.

Bulk math is plain NumPy (the kernel-tier table is the only seam of the
numerical layer: two rows and ``activate()``, the one rule that picks
one), the campaign grid's defaults and enumerations are
stated in ``repro.workloads`` only, and ``ckpt/format.py`` holds the one
temp-file + ``os.replace`` sequence.

The MatrixPIC kernel has one Stage 2 (``core/mpu_deposit.py::
tile_rhocells``); the per-particle formulation it replaced is the test
oracle ``tests/deposit_oracles.py`` and is named nowhere under ``src/``.
Its transpose is the one per-step gather (``pic/gather.py::
gather_fields_for_tile``), and the block row space the two share is
stated once, in ``pic/blocks.py``.  The particle stages run over
batches of tiles: the per-tile push is gone (its loop is the oracle in
``tests/particle_oracles.py``), the run size is one pusher constant, and
migration is one regroup that removes and appends nothing tile by tile.

A decomposed run deposits on the frame grid like every other run, so
``scratch_reduce`` is the only reduce helper behind the fan-out rule, and
the workload families are stated once, in ``repro.workloads.FAMILIES``.

There is one stage list: the frame grid is the array of record for every
run, and a decomposed run differs inside the solve stage only.

A run is one object, ``repro.api.Session``: stages and hooks are handed
it, and the pipeline tells the step hooks when a step has completed.

A window shift is a particle boundary event: the window shifts before
``migrate``, whose absorbing wall and regroup are the only trim and
re-tile, and it refills the exposed slab from its own stream.
"""

from __future__ import annotations

import ast
import inspect
import os

import repro
from repro import workloads
from repro.backend import KERNEL_TIERS, BackendConfig, activate
from repro.ckpt import capture_state
from repro.cli import build_parser
from repro.pic.deposition import DepositionKernel
from repro.pipeline import DepositStage, check_stage_set, global_stages
from repro.serve import expand_request

SRC = os.path.dirname(os.path.abspath(repro.__file__))


def source_texts():
    for directory, _subdirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, "r", encoding="utf-8") as stream:
                    text = stream.read()
                yield os.path.relpath(path, SRC).replace(os.sep, "/"), text


def source_trees():
    for path, text in source_texts():
        yield path, ast.parse(text, filename=path)


def name_of(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1]
    return None


def names_in(tree):
    return {name_of(node) for node in ast.walk(tree)} - {None}


def writes_record_file(call):
    """``write_snapshot(path, meta, {})`` — a snapshot with no arrays."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    if name != "write_snapshot":
        return False
    arrays = call.args[2] if len(call.args) > 2 else next(
        (kw.value for kw in call.keywords if kw.arg == "arrays"), None)
    return isinstance(arrays, ast.Dict) and not arrays.keys


def test_only_the_supervised_pool_knows_broken_process_pool():
    users = sorted(path for path, tree in source_trees()
                   if "BrokenProcessPool" in names_in(tree))
    # ckpt/faults.py is the harness that *injects* the failure
    assert users == ["ckpt/faults.py", "exec/pool.py"]


def test_only_the_record_log_writes_array_less_snapshots():
    users = sorted({
        path for path, tree in source_trees() for node in ast.walk(tree)
        if isinstance(node, ast.Call) and writes_record_file(node)})
    assert users == ["ckpt/recordlog.py"]


def functions_naming(name):
    """``path::function`` of every function outside ``exec/`` naming ``name``
    (``path`` alone for module-level code)."""
    users = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{owner.split('::')[0]}::{node.name}"
        if name_of(node) == name:
            users.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path, tree in source_trees():
        if not path.startswith("exec/"):
            visit(tree, path)
    return sorted(users)


def test_only_repro_exec_decides_whether_to_shard():
    # the rule is repro.exec.map_shards (shard_items + run_shards); a
    # hand-written fan-out needs the partition, the one-shard test or a
    # task list, and none of them is named outside repro/exec/ ...
    assert functions_naming("is_trivial") == []
    # ... except by the campaign, whose tasks are whole experiment cells
    # handed to the supervised pool, not tile shards
    assert functions_naming("TileTask") == [
        "analysis/campaign.py", "analysis/campaign.py::_execute"]
    # ... and str.partition on an HTTP header line
    assert functions_naming("partition") == [
        "serve/server.py::_read_request"]


def test_per_tile_work_never_leaves_the_callers_address_space():
    # the per-tile `processes` backend is retired, and with it the
    # question every stage had to answer (comments and docstrings
    # included: nothing should teach the idiom)
    retired = ("shares_memory", "tile_payload", "tile_from_payload",
               "ProcessShardExecutor", "BACKEND_PROCESSES")
    assert [(path, line.strip()) for path, text in source_texts()
            for line in text.splitlines()
            if any(name in line for name in retired)] == []
    # ... nor its answer: no fan-out call marks its body `local`
    fan_outs = ("map_shards", "run_shards", "scratch_reduce")
    assert sorted({
        path for path, tree in source_trees() for node in ast.walk(tree)
        if isinstance(node, ast.Call) and name_of(node.func) in fan_outs
        and any(kw.arg == "local" for kw in node.keywords)}) == []
    assert not os.path.exists(os.path.join(SRC, "exec", "process.py"))


def test_a_decomposed_run_deposits_on_the_frame():
    # one reduce helper: the primitives map_shards is made of are named
    # outside repro/exec/ by scratch_reduce (and its module's import) only
    for primitive in ("run_shards", "shard_items"):
        assert functions_naming(primitive) == [
            "pic/deposition/base.py",
            "pic/deposition/base.py::scratch_reduce"]
    # the window-seam reduction, and the knobs, emulator and extension
    # points retired with it (comments and docstrings included)
    retired = ("_reduce_into_windows", "_window_shard", "add_box_to_window",
               "overlap_group", "register_workload_kind", "VectorUnit",
               "HardwareConfig")
    assert [(path, line.strip()) for path, text in source_texts()
            for line in text.splitlines()
            if any(name in line for name in retired)] == []
    # no stage asks which strategy is installed
    assert [(path, node.lineno) for path, tree in source_trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and name_of(node.func) == "isinstance"
            and "ReferenceDeposition" in names_in(node)] == []
    # every run deposits through the shared stage, under one name
    (deposit,) = [stage for stage in global_stages()
                  if stage.name == "deposit"]
    assert isinstance(deposit, DepositStage)
    assert deposit.bucket == "current_deposition"


def test_there_is_one_stage_list():
    # a decomposed run steps through the stage list of every other run
    names = ("gather_push", "moving_window", "migrate", "deposit", "laser",
             "solve", "boundary")
    for domains in ((1, 1, 1), (2, 1, 1)):
        workload = workloads.UniformPlasmaWorkload(
            n_cell=(8, 8, 8), tile_size=(4, 4, 4), ppc=1, domains=domains)
        assert workload.build_session().pipeline.stage_names() == names
    # the second copy of the field state, and what kept it coherent with
    # the frame grid (comments and docstrings included)
    retired = ("sync_from_frame_once", "assemble(", "field_shifter",
               "apply_window", "domain_stages", "stage_set_for",
               "halo_for_order", "_synced")
    assert [(path, line.strip()) for path, text in source_texts()
            for line in text.splitlines()
            if any(name in line for name in retired)] == []
    # the domain runtime is built by the session and reached by the solve
    # and migrate stages — nobody else asks whether a run is decomposed
    users = {f"{path}::{func.name}" for path, tree in source_trees()
             if not path.startswith("domain/")
             for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
             for node in ast.walk(func)
             if isinstance(node, ast.Attribute) and node.attr == "domain"}
    assert users == {"api.py::__init__",
                     "pic/maxwell.py::run", "pipeline/stages.py::run"}


def test_a_run_is_one_object():
    # Session, Simulation and StageContext were the same attributes three
    # times; the wrappers, the second builder and what only they needed
    # are gone, comments and docstrings included
    retired = ("StageContext", "from_simulation", "build_simulation",
               "class Simulation:", "class Simulation(", "_CONTEXT_ROOTS",
               "step_index + 1")
    assert [(path, line.strip()) for path, text in source_texts()
            for line in text.splitlines()
            if any(name in line for name in retired)] == []
    # the pipeline alone knows which stage is first or last: it says "the
    # step ended" once, and no hook re-derives it
    assert sorted({path for path, text in source_texts()
                   if "stages[-1]" in text or "stages[0]" in text}
                  - {"pipeline/core.py"}) == []
    assert "step_index" not in inspect.signature(capture_state).parameters
    # exactly one class owns the run's collaborators
    owners = [f"{path}::{cls.name}" for path, tree in source_trees()
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              if {"grid", "containers", "executor", "pipeline"} <= {
                  target.attr for node in ast.walk(cls)
                  if isinstance(node, (ast.Assign, ast.AnnAssign))
                  for target in (node.targets if isinstance(node, ast.Assign)
                                 else [node.target])
                  if isinstance(target, ast.Attribute)
                  and name_of(target.value) == "self"}]
    assert owners == ["api.py::Session"]
    # ... and every stage and hook is handed that object, nothing else
    workload = workloads.UniformPlasmaWorkload(
        n_cell=(8, 8, 8), tile_size=(4, 4, 4), ppc=1)
    with workload.build_session() as session:
        assert session.simulation is session  # the alias bench/ spells
        seen = []
        session.pipeline.add_pre_hook(lambda stage, s: seen.append(s))
        session.pipeline.add_post_hook(lambda stage, s, secs: seen.append(s))
        session.pipeline.add_step_hook(seen.append)
        spy = type("Spy", (), {"name": "spy", "bucket": "other",
                               "run": lambda self, s: seen.append(s)})()
        session.pipeline.append(spy)
        session.step()
        assert len(seen) == 2 * 8 + 1 + 1
        assert all(s is session for s in seen)


def test_the_window_shifts_before_migration():
    # a shift is a particle boundary event: migrate's absorbing wall and
    # regroup see the new origin, so the window neither trims particles
    # nor leaves them in a tile whose box no longer holds their cell
    names = [stage.name for stage in global_stages()]
    assert names.index("moving_window") < names.index("migrate")
    assert check_stage_set(global_stages()) == []
    trees = dict(source_trees())
    assert [node.lineno for node in ast.walk(trees["pic/moving_window.py"])
            if isinstance(node, ast.Call)
            and name_of(node.func) == "remove"] == []
    # the window refills its slab from its own stream: the callback seam
    # and the attribute that carried its generator to repro.ckpt are gone
    # (comments and docstrings included); the one survivor is the
    # snapshot key older snapshots were written under
    retired = ("_trim_particles", "injector", "_window_injector",
               "_injector_rng")
    assert [(path, line.strip()) for path, text in source_texts()
            for line in text.splitlines()
            if any(name in line for name in retired)] == [
        ("ckpt/session.py", '_WINDOW_RNG = "injector"')]


def test_the_array_backend_seam_is_gone():
    # comments and docstrings included: nothing should teach the idiom
    retired = ("ArrayBackend", "NumpyBackend", "active_backend",
               "register_array_backend", "array_backend")
    users = [(path, line.strip()) for path, text in source_texts()
             for line in text.splitlines()
             if any(name in line for name in retired)]
    # the one survivor reads the key out of spec payloads journaled by
    # builds that still had the seam
    assert users == [("analysis/campaign.py",
                      'legacy = value.pop("array_backend", "numpy")')]


def test_no_ambient_run_state():
    """The kernel table and the telemetry registry are handed to their
    users; no module remembers a "current" one, and the two dispatched
    kernels that only ever had one implementation stay plain code."""
    retired = ("active_kernels", "active_selection", "use_backend",
               "use_telemetry", "gather6", "fdtd_roll", "check_api_surface",
               "telemetry()")
    assert [(path, line.strip()) for path, text in source_texts()
            for line in text.splitlines()
            if any(name in line for name in retired)] == []
    assert [(path, node.lineno) for path, tree in source_trees()
            if path.startswith(("backend/", "obs/"))
            for node in ast.walk(tree)
            if isinstance(node, (ast.Global, ast.Nonlocal))] == []


def test_kernel_tiers_are_a_table():
    # the registry (registration, priorities, availability callbacks,
    # oracle inheritance, resolve cache) and the second tile loop over an
    # instrumented kernel are gone, comments and docstrings included
    retired = ("KernelRegistry", "KernelTier", "kernel_registry",
               "register_kernel_tier", "BackendSelection", "KERNEL_NAMES",
               "backend_selection", "_deposit_kernel_tiles")
    assert [(path, line.strip()) for path, text in source_texts()
            for line in text.splitlines()
            if any(name in line for name in retired)] == []
    assert not hasattr(DepositionKernel, "deposit")
    # one function reads REPRO_KERNEL_TIER: the rule, next to the table
    assert functions_naming("KERNEL_TIER_ENV") == [
        "backend/__init__.py", "backend/__init__.py::activate"]
    assert [path for path, tree in source_trees() for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and node.value == "REPRO_KERNEL_TIER"] == ["backend/__init__.py"]
    # ... and what bench/harness.py stamps on a record is a row's name
    assert activate(BackendConfig()).kernel_tier in KERNEL_TIERS


def test_the_per_particle_mpu_stage_lives_under_tests_only():
    # Stage 2 of the MatrixPIC kernel is core/mpu_deposit.py::tile_rhocells
    # (stacked block products); the formulation that materialised three
    # (n, S^3) contribution arrays is tests/deposit_oracles.py, the oracle,
    # and a second production path would start by naming one of these
    retired = ("tile_contributions_cic", "tile_contributions_qsp",
               "_reorder_cic_block")
    assert [(path, line.strip()) for path, text in source_texts()
            for line in text.splitlines()
            if any(name in line for name in retired)] == []


def test_the_block_layout_is_stated_once():
    # the deposit and its transpose, the gather, share one row space:
    # BLOCK_ROWS and the group-by-cell + slot map are defined in
    # pic/blocks.py and imported — not restated — by the two users
    def defines(tree, name):
        return any(
            isinstance(node, ast.FunctionDef) and node.name == name
            or isinstance(node, ast.Assign)
            and any(name_of(target) == name for target in node.targets)
            for node in ast.walk(tree))

    def imported_from(tree):
        """``{module: names}`` of every ``from module import names``."""
        return {node.module: {alias.name for alias in node.names}
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}

    trees = dict(source_trees())
    for name in ("BLOCK_ROWS", "cell_block_slots", "stable_order_by_bin"):
        assert [path for path, tree in trees.items()
                if defines(tree, name)] == ["pic/blocks.py"], name
    for name in ("BLOCK_ROWS", "cell_block_slots"):
        assert sorted(path for path, text in source_texts()
                      if name in text) == [
            "core/mpu_deposit.py", "pic/blocks.py", "pic/gather.py"], name
        for user in ("core/mpu_deposit.py", "pic/gather.py"):
            assert name in imported_from(trees[user])["repro.pic.blocks"]
    # ... which is on the pic side because repro.pic stays below repro.core
    assert [path for path, text in source_texts() if path.startswith("pic/")
            and ("from repro.core" in text or "import repro.core" in text)
            ] == []


def test_the_step_reaches_one_gather():
    # per-step traffic gathers through gather_fields (a run of tiles per
    # call; gather_fields_for_tile is its one-tile entry point); the
    # stencil engine's generic adjoint (StencilOperator.gather /
    # gather_many) is called by the one documented out-of-domain
    # fallback inside pic/gather.py and by gather_many's own loop,
    # nowhere else under pic/, pipeline/ or core/
    def adjoint_calls(tree):
        return [node.func.attr for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("gather", "gather_many")]

    trees = dict(source_trees())
    assert {path: adjoint_calls(tree) for path, tree in trees.items()
            if path.startswith(("pic/", "pipeline/", "core/"))
            and adjoint_calls(tree)} == {
        "pic/gather.py": ["gather_many"], "pic/stencil.py": ["gather"]}
    # ... and the pusher and the pipeline name no other gather function
    stage_names = {"gather_push", "GatherPushStage", "field_gather_push"}
    for path, tree in trees.items():
        if path == "pic/pusher.py" or path.startswith("pipeline/"):
            assert {name for name in names_in(tree) - stage_names
                    if "gather" in name.lower()} <= {"gather_fields"}, path
    assert "gather_fields" in names_in(trees["pic/pusher.py"])


def test_particle_stages_run_once_per_batch():
    # gather + push run per run of tiles: the per-tile push is gone
    # (its loop is the oracle in tests/particle_oracles.py) ...
    assert [(path, line.strip()) for path, text in source_texts()
            for line in text.splitlines() if "push_tile" in line] == []
    # ... and the run size is one constant, read by the pusher only
    trees = dict(source_trees())
    assert [path for path, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(name_of(target) == "RUN_PARTICLES"
                    for target in node.targets)] == ["pic/pusher.py"]
    assert [path for path, text in source_texts()
            if "RUN_PARTICLES" in text] == ["pic/pusher.py"]
    # migration is one regroup: redistribute removes and appends nothing
    # tile by tile, and calls its move recorder without asking whether
    # there is one (a decomposed run takes the same path)
    (redistribute,) = [
        node for node in ast.walk(trees["pic/particles.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "redistribute"]
    calls = [name_of(node.func) for node in ast.walk(redistribute)
             if isinstance(node, ast.Call)]
    assert "remove" not in calls and "append" not in calls
    assert "move_recorder" in calls
    uses = [node for node in ast.walk(redistribute)
            if isinstance(node, ast.Name) and node.id == "move_recorder"]
    called = [node.func for node in ast.walk(redistribute)
              if isinstance(node, ast.Call)]
    assert uses and all(any(use is func for func in called) for use in uses)


def test_only_the_snapshot_format_stages_and_renames_files():
    def renames(tree):
        return any(isinstance(node, ast.Attribute) and node.attr == "replace"
                   and name_of(node.value) == "os" for node in ast.walk(tree))

    assert sorted(path for path, tree in source_trees()
                  if "mkstemp" in names_in(tree)) == ["ckpt/format.py"]
    assert sorted(path for path, tree in source_trees()
                  if renames(tree)) == ["ckpt/format.py"]


def test_cli_and_service_read_grid_defaults_from_the_one_schema(monkeypatch):
    patched = {"workload": "lwfa", "ppc": (8,),
               "configurations": ("Baseline",), "steps": 3,
               "warmup_steps": 0, "seed": 7, "kernel_tier": "oracle"}
    assert set(patched) == set(workloads.GRID_DEFAULTS)
    for key, value in patched.items():
        monkeypatch.setitem(workloads.GRID_DEFAULTS, key, value)
    args = vars(build_parser().parse_args(["campaign"]))
    assert {key: args[key] for key in patched} == {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in patched.items()}
    args = vars(build_parser().parse_args(["run"]))
    assert all(args[key] == patched[key]
               for key in ("workload", "seed", "kernel_tier"))
    (spec,) = expand_request({})
    assert (spec.workload_kind, spec.workload_params["ppc"],
            spec.configuration, spec.steps, spec.warmup_steps,
            spec.workload_params["seed"],
            spec.workload_params["backend"]["kernel_tier"]) \
        == ("lwfa", 8, "Baseline", 3, 0, 7, "oracle")


def test_grid_enumerations_are_not_restated_beside_the_schema():
    restated = [tuple(choices) for choices in workloads.GRID_CHOICES.values()]
    for path, tree in source_trees():
        if path in ("cli.py", "serve/queue.py"):
            for node in ast.walk(tree):
                if isinstance(node, (ast.Tuple, ast.List)) and all(
                        isinstance(item, ast.Constant) for item in node.elts):
                    literal = tuple(item.value for item in node.elts)
                    assert literal not in restated, (path, node.lineno)
