"""Structural guard: one pool supervisor, one record log, no re-growth.

Pool supervision (anything that has to know ``BrokenProcessPool``) lives
in ``repro/exec/pool.py`` and record files (``write_snapshot`` with an
empty array table) in ``repro/ckpt/recordlog.py``.  A second
implementation of either starts by naming one of those two things, so
naming them anywhere else under ``src/repro/`` fails here.
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


def names_in(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


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
