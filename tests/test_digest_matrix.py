"""Smoke test of the two-tree comparison ``tests/digest_matrix.py``: it
reads 0 between two runs of one tree and not 0 where a current moved,
and its summary counts a field one side lacks apart from the shared
fields that differ."""

from pathlib import Path

import numpy as np

from digest_matrix import case_state, compare, matrix, relative, summary

TINY = ("uniform-o1-ref-serial1", "uniform-o3-mpic-threads2")


def test_two_runs_of_one_tree_read_zero():
    root = Path(__file__).resolve().parent.parent
    rows = matrix(root, TINY, tiny=True)
    assert {name for name, *_ in rows} == set(TINY)
    assert {field for _, field, *_ in rows} >= {
        "grid.jx", "c0.x", "c0.ux", "energy", "counters.compute.mpu_mopa"}
    assert [row for row in rows if row[2] != 0.0] == []
    # the final state's charge density is deposited, so the row can move
    assert all(peak > 0.0 for _, field, _, peak in rows
               if field == "grid.rho")


def test_a_current_of_flipped_sign_reads_twice_its_peak():
    state = case_state(TINY[1], tiny=True)
    planted = dict(state)
    planted["grid.jx"] = -state["grid.jx"]
    moved = {field: relative(delta, peak)
             for field, delta, peak in compare(state, planted)
             if delta != 0.0}
    assert moved == {"grid.jx": 2.0}


def test_a_field_on_one_side_only_is_not_a_shared_field_that_differs():
    state = case_state(TINY[0], tiny=True)
    extra = dict(state, **{"grid.extra": np.ones(3)})
    rows = compare(state, extra)
    assert summary(rows) == (0, len(state), 1)
    assert summary(compare(extra, state)) == (0, len(state), 1)
    # a moved number is still counted among the shared fields
    moved = dict(extra, **{"grid.jx": state["grid.jx"] + 1.0})
    assert summary(compare(extra, moved)) == (1, len(extra), 0)
