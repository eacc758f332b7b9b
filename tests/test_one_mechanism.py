"""Structural guard: one pool supervisor, one record log, one tile
fan-out rule, one numerical extension point, one grid schema, one atomic
writer, no ambient run state — no re-growth.

Pool supervision (anything that has to know ``BrokenProcessPool``) lives
in ``repro/exec/pool.py``, the one record file (``write_snapshot`` with
an empty array table, the job journal) in ``repro/serve/queue.py``, and
the decision
whether and how to shard per-tile work (``executor.partition``,
``is_trivial``, ``TileTask``) in ``repro/exec/``.  A second
implementation of any of them starts by naming one of those things, so
naming them anywhere else under ``src/repro/`` fails here.  Per-tile
work runs in the caller's address space on every backend, so nothing
under ``src/repro/`` asks whether memory is shared, ships tile payloads
or marks a stage ``local=``.

Bulk math is plain NumPy and BLAS with one scatter path, the stencil's
(``repro.pic.stencil``; no module imports numba), the campaign grid's
defaults and enumerations are stated in ``repro.workloads`` only, and
``ckpt/format.py`` holds the one temp-file + ``os.replace`` sequence.

The MatrixPIC kernel has one Stage 2 (``core/mpu_deposit.py::
tile_rhocells``); the per-particle formulation it replaced is the test
oracle ``tests/deposit_oracles.py`` and is named nowhere under ``src/``.
Its transpose is the one per-step gather (``pic/gather.py::
gather_fields_for_tile``), and the block row space the two share is
stated once, in ``pic/blocks.py``.  The particle stages run over
batches of tiles: the per-tile push and the per-tile reference deposit
are gone (their loops are the oracles in ``tests/particle_oracles.py``
and ``tests/deposit_oracles.py``), the run rule is one function and one
constant in ``pic/particles.py`` that the pusher and the reference
deposit share, the piece rule for a dense tile is one more of each that
the pusher and the MatrixPIC deposit share, and migration is one regroup that removes and appends
nothing tile by tile.  A species' particles are one store in
``pic/particles.py``, a tile a range of it: no module concatenates or
splits tiles, tiles neither append nor remove, and no other module
rebinds a tile's arrays or builds a store.

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

No buffer outlives the call that uses it: the field solve computes plain
temporaries and a sharded deposit's task builds its own scratch grid, so
``repro.pic`` keeps no process-wide pool and no lock.

An experiment is a grid request: ``analysis/campaign.py::expand_request``
alone builds ``ExperimentSpec`` cells, and a spec holds nothing a grid
request cannot set.

A campaign cell has one durable record, its result-cache entry: a killed
sweep resumes by re-running on the same cache, so the campaign keeps no
progress file.  A served cell has the same one record: the job journal
holds jobs and cell keys, never a cell's spec or result.

``src/`` holds only what an entry point reaches: oracles and helpers that
only tests call live under ``tests/``, and an option only a test sets is
a module constant.  So do the static rules: they are
tier-1 tests in ``tests/test_static_rules.py``, sharing this file's AST
helpers (``tests/ast_helpers.py``), with no linter, subcommand or
suppression pragma in ``src/``.

The paper's numbers live in one place, the tier-1 ledger
``tests/test_paper_ledger.py``; ``benchmarks/`` keeps only the two
wall-clock scripts CI gates.
"""

from __future__ import annotations

import ast
import collections
import dataclasses
import inspect
import os
import re
import shutil

import pytest

from repro import cli, workloads
from repro.analysis.campaign import ExperimentSpec
from repro.ckpt import capture_state
from repro.cli import build_parser
from repro.config import ExecutionConfig
from repro.pic.deposition import DepositionKernel
from repro.pic.particles import ParticleContainer, ParticleTile
from repro.pipeline import DepositStage, global_stages
from repro.serve import expand_request

from ast_helpers import (
    SRC,
    defined_names,
    name_of,
    names_in,
    python_files,
    source_texts,
    source_trees,
)
from stage_effects import check_stage_set

BENCH = os.path.join(os.path.dirname(os.path.dirname(SRC)), "bench")
EXAMPLES = os.path.join(os.path.dirname(BENCH), "examples")


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


def test_only_the_job_journal_writes_array_less_snapshots():
    users = sorted({
        path for path, tree in source_trees() for node in ast.walk(tree)
        if isinstance(node, ast.Call) and writes_record_file(node)})
    assert users == ["serve/queue.py"]


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
    assert users == []


def test_no_ambient_run_state():
    """The telemetry registry is handed to its users; no module
    remembers a "current" one, and the two dispatched kernels that only
    ever had one implementation stay plain code."""
    retired = ("active_kernels", "active_selection", "use_backend",
               "use_telemetry", "gather6", "fdtd_roll", "check_api_surface",
               "telemetry()")
    assert [(path, line.strip()) for path, text in source_texts()
            for line in text.splitlines()
            if any(name in line for name in retired)] == []
    assert [(path, node.lineno) for path, tree in source_trees()
            if path == "backend.py" or path.startswith("obs/")
            for node in ast.walk(tree)
            if isinstance(node, (ast.Global, ast.Nonlocal))] == []


def test_there_is_one_scatter_path():
    # the kernel-tier table, its numba row and its selection rule are
    # gone, comments and docstrings included, as are the registry before
    # it (registration, priorities, availability callbacks, resolve
    # cache), the second tile loop over an instrumented kernel, the
    # cache-key numerics tag and the density-adaptive fallback kernel
    retired = ("KERNEL_TIERS", "ActiveKernels", "scatter3", "kernels_numba",
               "kernels_oracle", "REPRO_KERNEL_TIER", ".kernels",
               "KernelRegistry", "KernelTier", "kernel_registry",
               "register_kernel_tier", "BackendSelection", "KERNEL_NAMES",
               "backend_selection", "_deposit_kernel_tiles",
               ".numerics", "NUMERICS_FLAT", "kernel_numerics",
               "vpu_fallback_ppc", "fallback_kernel", "_pick_kernel",
               "use_atomics")
    assert [(path, line.strip()) for path, text in source_texts()
            for line in text.splitlines()
            if any(name in line for name in retired)] == []
    assert not hasattr(DepositionKernel, "deposit")
    # repro.backend is left for the benchmark record's stamp only
    assert [(path, node.lineno) for path, tree in source_trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (
                node.module == "repro.backend" or (
                    node.module == "repro"
                    and "backend" in [alias.name for alias in node.names]))
            or isinstance(node, ast.Import)
            and "repro.backend" in [alias.name for alias in node.names]
            ] == []
    # no config field, workload field, grid key, Session argument, CLI
    # flag, served key or run report names a tier
    def carries_requests(path):
        return path in ("config.py", "api.py", "cli.py") or path.startswith(
            ("workloads/", "serve/", "pic/"))

    assert [(path, line.strip()) for path, text in source_texts()
            if carries_requests(path) for line in text.splitlines()
            if any(name in line for name in (
                "kernel_tier", "kernel-tier", "BackendConfig"))] == []


def numba_imports(root):
    """``path:line`` of every import of numba under ``root``."""
    return [f"{path}:{node.lineno}" for path, tree in source_trees(root)
            for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "numba" for alias in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == "numba"]


def test_no_src_module_imports_numba():
    # the numerics are NumPy and BLAS; there is no compiled tier to
    # hold bitwise to them
    assert numba_imports(SRC) == []


@pytest.mark.parametrize("statement", [
    "import numba", "from numba import njit", "import numba.core as nc"])
def test_a_planted_numba_import_fails_the_guard(tmp_path, statement):
    root = tmp_path / "repro"
    shutil.copytree(SRC, root, ignore=shutil.ignore_patterns("__pycache__"))
    with open(root / "pic" / "stencil.py", "a", encoding="utf-8") as stream:
        stream.write(f"\n{statement}\n")
    assert [finding.split(":")[0] for finding in numba_imports(str(root))
            ] == ["pic/stencil.py"]


def test_the_per_particle_mpu_stage_lives_under_tests_only():
    # Stage 2 of the MatrixPIC kernel is core/mpu_deposit.py::tile_rhocells
    # (stacked block products); the formulation that materialised three
    # (n, S^3) contribution arrays is tests/deposit_oracles.py, the oracle,
    # and a second production path would start by naming one of these
    retired = ("tile_contributions_cic", "tile_contributions_qsp",
               "_reorder_cic_block",
               # ... and so would the per-pair MPU emulator, which is the
               # second oracle now (tests/mpu_oracles.py)
               "MatrixUnit", "build_cic_operands", "build_qsp_operands",
               "deposit_cell_cic_mpu", "deposit_cell_qsp_mpu", "mopa_batch")
    assert [(path, line.strip()) for path, text in source_texts()
            for line in text.splitlines()
            if any(name in line for name in retired)] == []


def test_the_block_layout_is_stated_once():
    # the deposit and its transpose, the gather, share one row space:
    # BLOCK_ROWS and the group-by-cell + slot map are defined in
    # pic/blocks.py and imported — not restated — by the two users
    def defines(tree, name):
        return any(
            isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name == name
            or isinstance(node, ast.Assign)
            and any(name_of(target) == name for target in node.targets)
            for node in ast.walk(tree))

    def imported_from(tree):
        """``{module: names}`` of every ``from module import names``."""
        return {node.module: {alias.name for alias in node.names}
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}

    def calls(tree, function):
        """Every call inside ``function``."""
        body = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef)
                    and node.name == function)
        return [node for node in ast.walk(body)
                if isinstance(node, ast.Call)]

    def einsum_specs(tree, function):
        """Subscripts of every ``einsum`` call inside ``function``."""
        return [node.args[0].value for node in calls(tree, function)
                if name_of(node.func) == "einsum"]

    def call_names(tree, function):
        return {name_of(node.func) for node in calls(tree, function)}

    trees = dict(source_trees())
    for name in ("BLOCK_ROWS", "cell_block_slots", "stable_order_by_bin",
                 "outer_rows"):
        assert [path for path, tree in trees.items()
                if defines(tree, name)] == ["pic/blocks.py"], name
    for name in ("BLOCK_ROWS", "cell_block_slots", "outer_rows"):
        assert sorted(path for path, text in source_texts()
                      if name in text) == [
            "core/mpu_deposit.py", "pic/blocks.py", "pic/gather.py"], name
        for user in ("core/mpu_deposit.py", "pic/gather.py"):
            assert name in imported_from(trees[user])["repro.pic.blocks"]
    # ... and both build their operand panels through outer_rows: an
    # einsum left in either is a contraction (some input index summed
    # away), never an outer-product operand build
    for user, function in (("core/mpu_deposit.py", "tile_rhocells"),
                           ("pic/gather.py", "_gather_components")):
        for spec in einsum_specs(trees[user], function):
            inputs, output = spec.split("->")
            assert set(inputs) - set(output) - {","}, (user, spec)
    # ... and the cells of one depth side by side is the layout's too:
    # both users read it off the BlockLayout and order nothing themselves
    # — no sort, and no per-block copy of a cell's operand (the gather
    # multiplies each cell's operand once per run of its depth)
    assert [path for path, tree in trees.items()
            if defines(tree, "BlockLayout")] == ["pic/blocks.py"]
    ordering = {"repeat", "argsort", "sort", "lexsort", "unique",
                "stable_order_by_bin"}
    for user, function in (("core/mpu_deposit.py", "_piece_rhocells"),
                           ("pic/gather.py", "_gather_components")):
        assert not call_names(trees[user], function) & ordering, user
    assert "depth_runs" in {
        node.attr for node in ast.walk(trees["pic/gather.py"])
        if isinstance(node, ast.Attribute)}
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
    # ... the run size is one constant beside the tile SoA helpers, read
    # by the run rule only ...
    trees = dict(source_trees())
    assert [path for path, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(name_of(target) == "RUN_PARTICLES"
                    for target in node.targets)] == ["pic/particles.py"]
    assert functions_naming("RUN_PARTICLES") == [
        "pic/particles.py", "pic/particles.py::tile_runs"]
    # ... and the rule is shared, not copied: the pusher and the reference
    # deposit both call it
    assert sorted({path for path, tree in trees.items()
                   for node in ast.walk(tree) if isinstance(node, ast.Call)
                   and name_of(node.func) == "tile_runs"}) == [
        "pic/deposition/reference.py", "pic/pusher.py"]
    # a dense tile is worked in pieces: the cap is one constant beside
    # the run size, read by the piece rule only, and the pusher and the
    # MatrixPIC deposit both take their pieces from that rule ...
    assert [path for path, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(name_of(target) == "BATCH_PARTICLES"
                    for target in node.targets)] == ["pic/particles.py"]
    assert functions_naming("BATCH_PARTICLES") == [
        "pic/particles.py", "pic/particles.py::piece_bounds"]
    assert sorted({path for path, tree in trees.items()
                   for node in ast.walk(tree) if isinstance(node, ast.Call)
                   and name_of(node.func) == "piece_bounds"}) == [
        "core/mpu_deposit.py", "pic/pusher.py"]
    # ... and the MatrixPIC kernel stages nothing itself: its pieces
    # stage through prepare_run_data, the one staging body
    assert not {"shape_factors", "velocities"} & names_in(
        trees["core/hybrid_kernel.py"])
    # the reference deposit scatters once per run: no loop over anything
    # but tile_runs(...) holds a scatter_tile_currents call (the per-tile
    # loop is the oracle in tests/deposit_oracles.py)
    def iterated(loop):
        if isinstance(loop, ast.For):
            return [loop.iter]
        return [generator.iter for generator in loop.generators]

    loops = [node for node in ast.walk(trees["pic/deposition/reference.py"])
             if isinstance(node, (ast.For, ast.ListComp, ast.SetComp,
                                  ast.GeneratorExp, ast.DictComp))]
    scatters = [loop for loop in loops if any(
        isinstance(node, ast.Call)
        and name_of(node.func) == "scatter_tile_currents"
        for node in ast.walk(loop))]
    assert scatters and all(
        isinstance(source, ast.Call) and name_of(source.func) == "tile_runs"
        for loop in scatters for source in iterated(loop))
    # the MOPA pairing that only counted pairs is the test oracle now
    assert [(path, node.name) for path, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and node.name == "pair_within_runs"] == []
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


#: a tile's SoA attributes, and the store attributes of its container
TILE_ARRAYS = ("x", "y", "z", "ux", "uy", "uz", "w", "ids")
STORE = ("block", "offsets")


def store_layout_findings(root):
    """``path:line: what`` for every place under ``root`` that restates
    the particle layout: a concat/split helper defined, imported or
    called anywhere, and outside ``pic/particles.py`` an assignment to a
    tile or store attribute (plain, augmented or ``setattr``) or a tile
    built."""
    retired = {"concat_tiles", "split_to_tiles"}
    findings = []
    for path, tree in source_trees(root):
        for node in ast.walk(tree):
            names = set()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.split(".")[-1]
                             for alias in node.names)
            elif isinstance(node, (ast.Name, ast.Attribute)):
                names.add(name_of(node))
            findings += [f"{path}:{node.lineno}: {name}"
                         for name in sorted(names & retired)]
            if path == "pic/particles.py":
                continue
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            written = [target.attr for target in targets
                       if isinstance(target, ast.Attribute)]
            if isinstance(node, ast.Call) and name_of(node.func) == "setattr" \
                    and len(node.args) > 1 \
                    and isinstance(node.args[1], ast.Constant):
                written.append(node.args[1].value)
            findings += [f"{path}:{node.lineno}: assigns .{name}"
                         for name in written
                         if name in TILE_ARRAYS + STORE]
            if isinstance(node, ast.Call) \
                    and name_of(node.func) == "ParticleTile":
                findings.append(f"{path}:{node.lineno}: builds a tile")
    return findings


def test_a_tile_is_a_range_of_its_species_store():
    assert store_layout_findings(SRC) == []
    assert not hasattr(ParticleTile, "append")
    assert not hasattr(ParticleTile, "remove")
    assert not hasattr(ParticleContainer, "apply_boundary_conditions")


@pytest.mark.parametrize("path, statement, finding", [
    ("pic/pusher.py", "from repro.pic.particles import concat_tiles",
     "concat_tiles"),
    ("pic/deposition/base.py",
     "def split_to_tiles(tiles, ends, arrays):\n    pass", "split_to_tiles"),
    ("ckpt/session.py", "def f(tile, values):\n    tile.x = values",
     "assigns .x"),
    ("ckpt/session.py", "def f(tile):\n    tile.ids += 1", "assigns .ids"),
    ("pic/moving_window.py",
     "def f(tile, values):\n    setattr(tile, 'uz', values)", "assigns .uz"),
    ("ckpt/session.py", "def f(container, block):\n    container.block = block",
     "assigns .block"),
    ("pic/pusher.py", "def f(*args):\n    return ParticleTile(*args)",
     "builds a tile"),
])
def test_a_planted_layout_restatement_fails_the_guard(tmp_path, path,
                                                      statement, finding):
    root = tmp_path / "repro"
    shutil.copytree(SRC, root, ignore=shutil.ignore_patterns("__pycache__"))
    with open(root / path, "a", encoding="utf-8") as stream:
        stream.write(f"\n\n{statement}\n")
    found = store_layout_findings(str(root))
    assert [item.split(":")[0] for item in found] == [path], found
    assert found[0].endswith(finding), found


def test_only_the_snapshot_format_stages_and_renames_files():
    def renames(tree):
        return any(isinstance(node, ast.Attribute) and node.attr == "replace"
                   and name_of(node.value) == "os" for node in ast.walk(tree))

    assert sorted(path for path, tree in source_trees()
                  if "mkstemp" in names_in(tree)) == ["ckpt/format.py"]
    assert sorted(path for path, tree in source_trees()
                  if renames(tree)) == ["ckpt/format.py"]


def test_cli_and_service_read_grid_defaults_from_the_one_schema(monkeypatch,
                                                               capsys):
    patched = {"workload": "lwfa", "ppc": (8,),
               "configurations": ("Baseline",), "steps": 3,
               "warmup_steps": 0, "seed": 7}
    assert set(patched) == set(workloads.GRID_DEFAULTS)
    for key, value in patched.items():
        monkeypatch.setitem(workloads.GRID_DEFAULTS, key, value)
    families = {"uniform": {"n_cell": (12, 12, 12), "tile_size": (6, 6, 6)},
                "lwfa": {"n_cell": (12, 12, 48), "tile_size": (12, 12, 24)}}
    assert set(families) == set(workloads.FAMILIES)
    for name, family in families.items():
        for key, value in family.items():
            monkeypatch.setitem(workloads.FAMILIES[name], key, value)
    args = vars(build_parser().parse_args(["campaign"]))
    assert {key: args[key] for key in patched} == {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in patched.items()}
    args = vars(build_parser().parse_args(["run"]))
    assert all(args[key] == patched[key]
               for key in ("workload", "seed"))
    # --help states each family's grid defaults as FAMILIES has them
    for command in ("campaign", "run"):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "(defaults: 12,12,12 uniform / 12,12,48 lwfa)" in text
        assert "(defaults: 6,6,6 uniform / 12,12,24 lwfa)" in text
    (spec,) = expand_request({})
    assert (spec.workload_kind, spec.workload_params["ppc"],
            spec.configuration, spec.steps, spec.warmup_steps,
            spec.workload_params["seed"], spec.workload_params["n_cell"],
            spec.workload_params["tile_size"]) \
        == ("lwfa", 8, "Baseline", 3, 0, 7, (12, 12, 48), (12, 12, 24))


def test_run_reads_its_execution_defaults_from_execution_config(
        monkeypatch):
    args = build_parser().parse_args(["run"])
    assert (args.backend, args.shards) == (ExecutionConfig().backend,
                                           ExecutionConfig().num_shards)
    # read, not restated: other defaults there are other defaults here
    monkeypatch.setattr(cli, "ExecutionConfig", lambda: ExecutionConfig(
        backend="threads", num_shards=3))
    args = build_parser().parse_args(["run"])
    assert (args.backend, args.shards) == ("threads", 3)


#: the second grid schema (workload objects x configuration names) and
#: its spec builder, retired: every experiment is a grid request
RETIRED_GRID_NAMES = {"from_grid", "sweep_configurations",
                      "spec_for_workload"}


def grid_schema_findings(root):
    """``path:line: what`` for every place under ``root`` that builds
    experiments outside the one grid expansion: a retired grid entry
    point defined, imported or called, an ``expand_request`` defined
    outside ``analysis/campaign.py``, or an ``ExperimentSpec`` built
    outside ``expand_request`` (``from_dict``'s ``cls(...)`` rebuilds
    one, it describes none)."""
    findings = []
    for path, tree in source_trees(root):
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) \
                    and node.name == "expand_request":
                if path != "analysis/campaign.py":
                    findings.append(f"{path}:{node.lineno}: "
                                    "a second expand_request")
                inside.update(id(child) for child in ast.walk(node))
        for node in ast.walk(tree):
            names = set()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.split(".")[-1]
                             for alias in node.names)
            elif isinstance(node, (ast.Name, ast.Attribute)):
                names.add(name_of(node))
            findings += [f"{path}:{node.lineno}: {name}"
                         for name in sorted(names & RETIRED_GRID_NAMES)]
            if isinstance(node, ast.Call) \
                    and name_of(node.func) == "ExperimentSpec" \
                    and id(node) not in inside:
                findings.append(f"{path}:{node.lineno}: builds a spec "
                                "outside expand_request")
    return findings


def test_a_grid_is_expanded_in_one_place():
    # the CLI and the service hand their grid to expand_request, which
    # alone builds specs; there is no second schema beside it
    assert grid_schema_findings(SRC) == []
    assert "expand_request" in defined_names(
        dict(source_trees())["analysis/campaign.py"])
    # a spec is what a grid request says, and nothing a grid request
    # cannot set
    assert [field.name for field in dataclasses.fields(ExperimentSpec)] \
        == ["workload_kind", "workload_params", "configuration", "steps",
            "warmup_steps", "scramble"]


@pytest.mark.parametrize("path, statement, finding", [
    ("analysis/campaign.py",
     "def spec_for_workload(workload, configuration):\n    pass",
     "spec_for_workload"),
    ("analysis/runner.py",
     "def sweep_configurations(workload, names):\n    pass",
     "sweep_configurations"),
    ("analysis/campaign.py",
     "class Grid:\n    @classmethod\n    def from_grid(cls):\n        pass",
     "from_grid"),
    ("serve/queue.py",
     "def expand_request(request):\n    return []",
     "a second expand_request"),
    ("cli.py",
     "def cell(workload):\n"
     "    return ExperimentSpec('uniform', {}, 'Baseline')",
     "builds a spec outside expand_request"),
])
def test_a_planted_second_grid_schema_fails_the_guard(tmp_path, path,
                                                      statement, finding):
    root = tmp_path / "repro"
    shutil.copytree(SRC, root, ignore=shutil.ignore_patterns("__pycache__"))
    with open(root / path, "a", encoding="utf-8") as stream:
        stream.write(f"\n\n{statement}\n")
    found = grid_schema_findings(str(root))
    assert [item.split(":")[0] for item in found] == [path], found
    assert found[0].endswith(finding), found


def test_grid_enumerations_are_not_restated_beside_the_schema():
    restated = [tuple(choices) for choices in workloads.GRID_CHOICES.values()]
    for path, tree in source_trees():
        if path in ("cli.py", "serve/queue.py", "analysis/campaign.py"):
            for node in ast.walk(tree):
                if isinstance(node, (ast.Tuple, ast.List)) and all(
                        isinstance(item, ast.Constant) for item in node.elts):
                    literal = tuple(item.value for item in node.elts)
                    assert literal not in restated, (path, node.lineno)


def test_a_campaign_cell_has_one_durable_record():
    # the result cache is the resume log: no second per-cell store ...
    assert not os.path.exists(os.path.join(SRC, "ckpt", "progress.py"))
    # ... no campaign parameter, attribute or import that would carry one
    trees = dict(source_trees())
    campaign = trees["analysis/campaign.py"]
    identifiers = names_in(campaign) | {
        node.arg for node in ast.walk(campaign)
        if isinstance(node, (ast.arg, ast.keyword))}
    assert identifiers & {"CampaignProgress", "checkpoint_dir", "resume"} \
        == set()
    # ... and a served cell neither: the journal's record log is folded
    # into the journal, which keeps each cell's key only
    assert not os.path.exists(os.path.join(SRC, "ckpt", "recordlog.py"))
    assert [path for path, tree in trees.items()
            if (names_in(tree) | defined_names(tree))
            & {"RecordLog", "adopt", "journal_every"}] == []
    to_journal = next(
        node for node in ast.walk(trees["serve/queue.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "to_journal")
    assert {key.value for node in ast.walk(to_journal)
            if isinstance(node, ast.Dict) for key in node.keys} == {
        "job_id", "tenant", "request", "status", "error", "cells",
        "index", "key"}


def test_no_process_wide_scratch_pools():
    # the scratch grid and array pools and their module instances are gone
    # (comments and docstrings included); the names are spelled in halves
    # so that a search of the tree finds them nowhere at all
    retired = [head + tail for head, tail in (
        ("ScratchGrid", "Pool"), ("ScratchArray", "Pool"),
        ("scratch_grid", "s"), ("scratch_array", "s"))]
    assert [(path, line.strip()) for path, text in source_texts()
            for line in text.splitlines()
            if any(name in line for name in retired)] == []
    # ... and with them the locks: nothing under pic/ imports threading
    assert [path for path, tree in source_trees() if path.startswith("pic/")
            for node in ast.walk(tree)
            if (isinstance(node, ast.Import)
                and any(alias.name == "threading" for alias in node.names))
            or (isinstance(node, ast.ImportFrom)
                and node.module == "threading")] == []
    # the solver leases nothing: all it takes from the grid module is Grid
    trees = dict(source_trees())
    assert [sorted(alias.name for alias in node.names)
            for node in ast.walk(trees["pic/maxwell.py"])
            if isinstance(node, ast.ImportFrom)
            and node.module == "repro.pic.grid"] == [["Grid"]]


#: public ``src/`` definitions that nothing under ``src/`` or ``bench/``
#: uses yet, and why each stays; an entry that is gone or has gained a
#: user fails the guard below, so the list can only shrink
ALLOWLIST = {
    "crossover_ppc": "the Fig. 8 crossover; waits on the wall-clock PPC "
                     "sweep in bench/ that is to record it",
    "deposit_rho_reference": "the one rho deposit; waits on the Gauss's-law "
                             "health gauge, its first run-path caller",
    "check_invariants": "the GPMA verification surface the sorter "
                        "differential tests read",
    "bin_of": "GPMA inspection surface the sorter differential tests read",
    "particles_in_bin": "GPMA inspection surface the sorter differential "
                        "tests read",
    "disarm": "the KillSwitch fault-injection seam",
    "axis_windows": "leaves with repro.domain",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _re_exports(path, tree):
    """Line numbers of an ``__init__.py``'s imports and ``__all__``."""
    if os.path.basename(path) != "__init__.py":
        return set()
    return {line for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            or isinstance(node, ast.Assign)
            and any(name_of(target) == "__all__" for target in node.targets)
            for line in range(node.lineno, node.end_lineno + 1)}


def unreached_definitions(src, *users):
    """``(name, path, line)`` of every public top-level function or class
    under ``src`` and every public method of a top-level class whose name
    occurs nowhere under ``src`` or ``users`` but at definitions.

    A use is an identifier-shaped word anywhere in the text — code,
    strings or comments, so dispatch by name and a docstring pointer both
    count — except in an ``__init__.py``'s imports and ``__all__``, which
    re-export.  The words are counted once over all files (one regex pass
    per line, not one per name).  The check is one-hop and blind to
    homonyms: a name shared with anything used counts as used, and a
    cluster of definitions that only reference each other passes.
    """
    words, sites, public = collections.Counter(), collections.Counter(), []
    for root in (src, *users):
        for path in python_files(root):
            with open(path, "r", encoding="utf-8") as stream:
                text = stream.read()
            tree = ast.parse(text, filename=path)
            skip = _re_exports(path, tree)
            for number, line in enumerate(text.splitlines(), 1):
                if number not in skip:
                    words.update(_WORD.findall(line))
            sites.update(node.name for node in ast.walk(tree)
                         if isinstance(node, _DEFINITIONS))
            if root != src:
                continue
            where = os.path.relpath(path, src).replace(os.sep, "/")
            for node in tree.body:
                if not isinstance(node, _DEFINITIONS):
                    continue
                methods = [item for item in node.body if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef))] \
                    if isinstance(node, ast.ClassDef) else []
                public += [(definition.name, where, definition.lineno)
                           for definition in (node, *methods)
                           if not definition.name.startswith("_")]
    return [(name, path, line) for name, path, line in public
            if words[name] <= sites[name]]


def test_src_is_what_an_entry_point_reaches():
    """A public ``src/`` name that no ``src/`` or ``bench/`` code uses is
    a test oracle or a test helper (it belongs under ``tests/``) or dead.

    Static, so it cannot see a cluster that only references itself; the
    evidence for those is a ``sys.setprofile`` trace of the entry points.
    """
    unreached = unreached_definitions(SRC, BENCH)
    offenders = [f"src/repro/{path}:{line}: {name}"
                 for name, path, line in unreached if name not in ALLOWLIST]
    assert not offenders, (
        "public definitions nothing under src/ or bench/ uses; give each a "
        "caller, or move it to tests/ (tests/helpers.py, an oracle module) "
        "or delete it:\n" + "\n".join(offenders))
    stale = sorted(set(ALLOWLIST) - {name for name, _, _ in unreached})
    assert not stale, (
        "ALLOWLIST entries that are gone or have a user now; delete them: "
        + ", ".join(stale))


#: defaulted parameters and dataclass fields under ``src/`` that nothing
#: under ``src/``, ``bench/`` or ``examples/`` passes, and why each stays;
#: an entry that is gone or has gained a setter fails the guard below, so
#: the list can only shrink
OPTION_ALLOWLIST = {
    "SupervisedPool(factory=)": "the fault-injection seam: a test hands "
                                "the pool BrokenPoolOnce",
    "BrokenPoolOnce(fail=)": "the fault injector's schedule: how it breaks",
    "BrokenPoolOnce(at=)": "the fault injector's schedule: when it breaks",
    "main(argv=)": "the CLI's seam: the console entry point parses "
                   "sys.argv, a test passes its own list",
    "SpeciesConfig(charge=)": "a species' identity, not a knob: the "
                              "deposit tests put ions on the electrons",
    "SpeciesConfig(mass=)": "a species' identity, not a knob (see charge)",
    "BackendConfig(kernel_tier=)": "leaves with repro.backend, which only "
                                   "the bench record stamp reads",
}


def options_in(src):
    """``(owner, name, position, kind, path, line)`` of each defaulted
    parameter under ``src`` (an ``__init__``'s owner is its class; a
    keyword-only one has no position) and each defaulted ``__init__``
    field of a dataclass (kind ``"field"``, or ``"frozen"``)."""
    found = []

    def visit(body, path, cls=None):
        for node in body:
            if isinstance(node, ast.ClassDef):
                for deco in node.decorator_list:
                    if name_of(getattr(deco, "func", deco)) != "dataclass":
                        continue
                    kind = "frozen" if any(
                        k.arg == "frozen" and getattr(k.value, "value", 0)
                        for k in getattr(deco, "keywords", ())) else "field"
                    fields = [item for item in node.body
                              if isinstance(item, ast.AnnAssign)
                              and "ClassVar" not in ast.unparse(item)
                              and "init=False" not in ast.unparse(item)]
                    found.extend((node.name, item.target.id, index, kind,
                                  path, item.lineno)
                                 for index, item in enumerate(fields)
                                 if item.value is not None)
                visit(node.body, path, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                skip = int(cls is not None and positional[:1] != []
                           and positional[0].arg in ("self", "cls"))
                owner = cls.name if cls and node.name == "__init__" \
                    else node.name
                first = len(positional) - len(args.defaults)
                found.extend((owner, arg.arg, index - skip, "parameter",
                              path, node.lineno)
                             for index, arg in enumerate(positional)
                             if index >= first)
                found.extend((owner, arg.arg, None, "parameter", path,
                              node.lineno)
                             for arg, default in zip(args.kwonlyargs,
                                                     args.kw_defaults)
                             if default is not None)
                visit(node.body, path)

    for path, tree in source_trees(src):
        visit(tree.body, path)
    return found


def options_without_setter(src, *users):
    """``(label, path, line)`` of each option under ``src`` that no code
    under ``src`` or ``users`` passes: by keyword to any call (keyword
    arguments kept as data are spelled ``dict(name=...)``), by position
    to a callee of the owner's name, through a ``*``/``**`` splat or a
    ``partial`` of it, or, for a mutable dataclass's field, by an
    attribute store.  One-hop and blind to homonyms, like the reach
    guard: a parameter forwarded from its caller's own counts as set."""
    keywords, stored, positional = set(), set(), collections.Counter()
    for root in (src, *users):
        for _path, tree in source_trees(root):
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    callee = name_of(node.func)
                    names = {keyword.arg for keyword in node.keywords}
                    keywords |= names - {None}
                    if callee == "partial" and node.args:
                        positional[name_of(node.args[0])] = 1 << 30
                    splat = None in names or any(
                        isinstance(arg, ast.Starred) for arg in node.args)
                    positional[callee] = max(
                        positional[callee], 1 << 30 if splat else len(node.args))
                elif isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Store):
                    stored.add(node.attr)
    return [(f"{owner}({name}=)", path, line)
            for owner, name, position, kind, path, line in options_in(src)
            if name not in keywords
            and (position is None or positional[owner] <= position)
            and not (kind == "field" and name in stored)]


def test_every_option_has_a_setter_outside_tests():
    """An option only a test sets is a knob no run turns: make it a module
    constant of the same value (a test patches it), or delete it."""
    unset = options_without_setter(SRC, BENCH, EXAMPLES)
    offenders = [f"src/repro/{path}:{line}: {label}"
                 for label, path, line in unset
                 if label not in OPTION_ALLOWLIST]
    assert not offenders, "options nothing under src/, bench/ or " \
        "examples/ passes:\n" + "\n".join(offenders)
    stale = sorted(set(OPTION_ALLOWLIST) - {label for label, _, _ in unset})
    assert not stale, ("OPTION_ALLOWLIST entries that are gone or have a "
                       "setter now; delete them: " + ", ".join(stale))


@pytest.mark.parametrize("path, text, label", [
    ("pic/planted.py", "def deposit_all(grid, scale=1.0):\n"
                       "    return scale\n\n\ndeposit_all(None)\n",
     "deposit_all(scale=)"),
    ("obs/planted.py", "import dataclasses\n\n\n"
                       "@dataclasses.dataclass(frozen=True)\n"
                       "class PlantedConfig:\n    cadence: int = 1\n",
     "PlantedConfig(cadence=)"),
], ids=["parameter", "frozen-field"])
def test_a_planted_test_only_option_fails_the_guard(tmp_path, path, text,
                                                    label):
    root = tmp_path / "repro"
    shutil.copytree(SRC, root, ignore=shutil.ignore_patterns("__pycache__"))
    (root / path).write_text(text)
    assert [entry for entry, _, _ in options_without_setter(
        str(root), BENCH, EXAMPLES) if entry not in OPTION_ALLOWLIST] \
        == [label]


@pytest.mark.parametrize("user", [
    "planted.deposit_all(None, scale=2.0)",      # by keyword
    "planted.deposit_all(None, 2.0)",            # by position
    "planted.deposit_all(**{'grid': None})",     # through a splat
    "functools.partial(planted.deposit_all)",    # wrapped for a later call
    "ARGS = dict(scale=2.0)",                    # a keyword kept as data
])
def test_a_setter_outside_tests_satisfies_the_guard(tmp_path, user):
    for name, text in (("src/planted.py", "def deposit_all(grid, scale=1.0):"
                                          "\n    return scale\n"),
                       ("bench/run.py", f"{user}\n")):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    assert options_without_setter(str(tmp_path / "src"),
                                  str(tmp_path / "bench")) == []


#: what ``benchmarks/`` may hold: the two scripts CI runs and gates, and
#: the fixture they share; the paper's numbers are tests/test_paper_ledger.py
BENCHMARK_SCRIPTS = ["__init__.py", "bench_domain_scaling.py", "conftest.py"]


def test_the_paper_numbers_live_in_the_ledger_not_in_benchmarks():
    benchmarks = os.path.join(os.path.dirname(BENCH), "benchmarks")
    assert sorted(name for name in os.listdir(benchmarks)
                  if name != "__pycache__") == BENCHMARK_SCRIPTS, (
        "benchmarks/ holds only the CI-gated script: a paper number "
        "is a row of tests/test_paper_ledger.py.  It leaves with what "
        "it measures: bench_domain_scaling.py with repro.domain")


# the linter package, its subcommand and its suppression pragma are
# gone; the rules are tests/test_static_rules.py
def test_the_static_rules_live_under_tests():
    assert not os.path.exists(os.path.join(SRC, "tools"))


def test_there_is_no_lint_subcommand():
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["lint"])
    assert exit_info.value.code == 2


def test_no_src_module_carries_a_lint_pragma():
    assert [path for path, text in source_texts()
            if "repro-lint" in text] == []


@pytest.mark.parametrize("files, unreached", [
    # a public function, method or class nobody names; private ones and
    # names a caller spells are fine
    ({"src/a.py": "def orphan():\n    pass\n\n\ndef _hidden():\n    pass\n\n\n"
                  "class Box:\n    def open(self):\n        pass\n\n"
                  "    def shut(self):\n        pass\n",
      "src/b.py": "from a import Box\n\nBox().open()\n"},
     [("orphan", "a.py", 1), ("shut", "a.py", 13)]),
    # a package re-export is not a use; a docstring pointer or a use
    # under bench/ is
    ({"src/__init__.py": "from a import kept, orphan\n\n"
                         "__all__ = ['kept', 'orphan', 'pointed']\n",
      "src/a.py": "def kept():\n    pass\n\n\ndef orphan():\n    pass\n",
      "src/c.py": '"""See pointed()."""\n\n\ndef pointed():\n    pass\n',
      "bench/run.py": "from a import kept\n\nkept()\n"},
     [("orphan", "a.py", 5)]),
    # two unused homonyms are two unused definitions, not each other's use
    ({"src/a.py": "def twin():\n    pass\n",
      "src/b.py": "class Twin:\n    def twin(self):\n        pass\n\n\n"
                  "Twin()\n"},
     [("twin", "a.py", 1), ("twin", "b.py", 2)]),
], ids=["unused", "re-export-vs-use", "homonyms"])
def test_the_reach_guard_counts_uses_not_definitions(tmp_path, files,
                                                     unreached):
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
    (tmp_path / "bench").mkdir(exist_ok=True)
    assert sorted(unreached_definitions(
        str(tmp_path / "src"), str(tmp_path / "bench"))) == unreached
