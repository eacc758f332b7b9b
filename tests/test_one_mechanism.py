"""Structural guard: one pool supervisor, one record log, one tile
fan-out rule — no re-growth.

Pool supervision (anything that has to know ``BrokenProcessPool``) lives
in ``repro/exec/pool.py``, record files (``write_snapshot`` with an
empty array table) in ``repro/ckpt/recordlog.py``, and the decision
whether and how to shard per-tile work (``executor.partition``,
``is_trivial``, ``TileTask``, ``shares_memory``) in ``repro/exec/``.  A
second implementation of any of them starts by naming one of those
things, so naming them anywhere else under ``src/repro/`` fails here.
"""

from __future__ import annotations

import ast
import os

import repro

SRC = os.path.dirname(os.path.abspath(repro.__file__))


def source_trees():
    for directory, _subdirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, "r", encoding="utf-8") as stream:
                    tree = ast.parse(stream.read(), filename=path)
                yield os.path.relpath(path, SRC).replace(os.sep, "/"), tree


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


def test_only_the_reduce_helpers_and_the_pusher_ask_about_shared_memory():
    # who leases scratch (in-process) or ships payloads (worker process):
    # the grid scratch-reduce, its subdomain-window twin, and the pusher's
    # functional process path
    assert functions_naming("shares_memory") == [
        "domain/runtime.py::_reduce_into_windows",
        "pic/deposition/base.py::scratch_reduce",
        "pic/pusher.py::push",
    ]
