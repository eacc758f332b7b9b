"""Checkpoint/restart: snapshot format, bitwise resume parity, CLI wiring.

The resume contract under test mirrors the domain-parity contract: for
any (backend, shard count, domain split), a run of ``N``
steps is bitwise identical — fields, currents, particles, RNG streams,
energy history — to a run of ``k`` steps + save + restore into a fresh
session + ``N - k`` more steps.
"""

from __future__ import annotations

import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ckpt as ckpt
from repro.analysis.campaign import ExperimentSpec, expand_request, run_spec
from repro.api import Session
from repro.baselines.configs import available_configurations, make_strategy
from repro.ckpt import (
    CheckpointHook,
    CorruptSnapshotError,
    SnapshotMismatchError,
    capture_state,
    latest_valid_snapshot,
    list_snapshots,
    read_snapshot,
    restore_state,
    snapshot_path,
    write_snapshot,
)
from faults import flip_byte, truncate_file
from helpers import hot_plasma_session
from repro.cli import main
from repro.config import ExecutionConfig
from repro.workloads.lwfa import LWFAWorkload
from repro.workloads.uniform import UniformPlasmaWorkload

def uniform_session(*, backend="serial", shards=1, domains=(1, 1, 1),
                    steps=6, order=1, strategy=None):
    """A small uniform session."""
    workload = UniformPlasmaWorkload(
        n_cell=(8, 8, 8), tile_size=(4, 4, 4), ppc=8, max_steps=steps,
        shape_order=order, domains=domains,
        execution=ExecutionConfig(backend=backend, num_shards=shards))
    return Session.from_workload(
        workload, deposition=make_strategy(strategy) if strategy else None)


def lwfa_session(steps=8, tile_size=(4, 4, 8), strategy=None):
    workload = LWFAWorkload(n_cell=(8, 8, 32), tile_size=tile_size,
                            max_steps=steps)
    return Session.from_workload(
        workload, deposition=make_strategy(strategy) if strategy else None)


def assert_state_equal(ref, got):
    """Bitwise comparison of two ``capture_state`` snapshots.

    Stronger than comparing observables: includes both RNG streams, the
    id allocator cursors and the energy history.
    """
    meta_r, arrays_r = ref
    meta_g, arrays_g = got
    assert set(arrays_r) == set(arrays_g)
    for name in sorted(arrays_r):
        assert arrays_r[name].tobytes() == arrays_g[name].tobytes(), name
    assert meta_r["step_index"] == meta_g["step_index"]
    assert meta_r["rng"] == meta_g["rng"]
    assert meta_r["energy_history"] == meta_g["energy_history"]
    assert meta_r["window_total_shift_cells"] == \
        meta_g["window_total_shift_cells"]
    assert meta_r["containers"] == meta_g["containers"]
    assert meta_r["deposition"] == meta_g["deposition"]


def run_steps(session, n, record_energy=False):
    for _ in session.run(n, record_energy=record_energy):
        pass


# ----------------------------------------------------------------------
# snapshot container format
# ----------------------------------------------------------------------

class TestSnapshotFormat:
    META = {"state_version": 1, "step_index": 3}

    def arrays(self):
        return {
            "b": np.arange(12.0).reshape(3, 4),
            "a": np.array([1, 2, 3], dtype=np.int64),
        }

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        write_snapshot(path, self.META, self.arrays())
        meta, arrays = read_snapshot(path)
        assert meta == self.META
        assert set(arrays) == {"a", "b"}
        for name, ref in self.arrays().items():
            assert arrays[name].dtype == ref.dtype
            assert np.array_equal(arrays[name], ref)

    def test_byte_deterministic(self, tmp_path):
        p1, p2 = str(tmp_path / "1.ckpt"), str(tmp_path / "2.ckpt")
        write_snapshot(p1, self.META, self.arrays())
        # insertion order must not matter
        reordered = dict(reversed(list(self.arrays().items())))
        write_snapshot(p2, self.META, reordered)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_bad_magic_detected(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        write_snapshot(path, self.META, self.arrays())
        with open(path, "rb+") as stream:  # corrupt the first byte
            first = stream.read(1)
            stream.seek(0)
            stream.write(bytes([first[0] ^ 0xFF]))
        with pytest.raises(CorruptSnapshotError, match="magic"):
            read_snapshot(path)

    def test_truncation_detected(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        write_snapshot(path, self.META, self.arrays())
        truncate_file(path)
        with pytest.raises(CorruptSnapshotError):
            read_snapshot(path)

    def test_flipped_payload_byte_detected(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        write_snapshot(path, self.META, self.arrays())
        flip_byte(path)
        with pytest.raises(CorruptSnapshotError, match="digest"):
            read_snapshot(path)

    def test_empty_file_detected(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        open(path, "wb").close()
        with pytest.raises(CorruptSnapshotError):
            read_snapshot(path)

    def test_object_dtype_rejected_at_write(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        with pytest.raises((TypeError, ValueError)):
            write_snapshot(path, self.META,
                           {"bad": np.array([object()], dtype=object)})

    def test_failed_write_leaves_no_partial_file(self, tmp_path,
                                                 monkeypatch):
        target = tmp_path / "sub"
        target.mkdir()
        path = str(target / "s.ckpt")
        write_snapshot(path, self.META, self.arrays())
        before = open(path, "rb").read()

        def exploding_replace(src, dst):
            raise OSError("injected fault: rename failed")

        # a failed rename must never clobber the good snapshot, and the
        # temp file must be cleaned up
        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="injected fault"):
            write_snapshot(path, {"state_version": 2}, self.arrays())
        monkeypatch.undo()
        assert open(path, "rb").read() == before
        assert [n for n in os.listdir(target) if n != "s.ckpt"] == []


class TestSnapshotStore:
    def test_latest_valid_skips_corrupt(self, tmp_path, caplog):
        directory = str(tmp_path)
        meta = {"state_version": 1}
        for step in (1, 2, 3):
            write_snapshot(snapshot_path(directory, step), meta, {})
        truncate_file(snapshot_path(directory, 3))
        flip_byte(snapshot_path(directory, 2))
        with caplog.at_level("WARNING", logger="repro.ckpt.store"):
            loaded = latest_valid_snapshot(directory)
        assert loaded is not None and loaded.step == 1
        assert sum("skipping unusable snapshot" in rec.message
                   for rec in caplog.records) == 2

    def test_latest_valid_empty_and_missing_directory(self, tmp_path):
        assert latest_valid_snapshot(str(tmp_path)) is None
        assert latest_valid_snapshot(str(tmp_path / "nope")) is None
        assert list_snapshots(str(tmp_path / "nope")) == []

    def test_unrelated_files_ignored(self, tmp_path):
        (tmp_path / "notes.txt").write_text("hello")
        (tmp_path / "step-1.ckpt").write_text("wrong digit count")
        assert list_snapshots(str(tmp_path)) == []


# ----------------------------------------------------------------------
# bitwise resume parity
# ----------------------------------------------------------------------

class TestResumeParity:
    def parity(self, make_session, total, k, tmp_path,
               record_energy=False):
        path = str(tmp_path / "s.ckpt")
        with make_session() as full:
            run_steps(full, total, record_energy)
            ref = capture_state(full)
        with make_session() as first:
            run_steps(first, k, record_energy)
            first.save(path)
        with make_session() as second:
            second.restore(path)
            assert second.step_index == k
            run_steps(second, total - k, record_energy)
            assert_state_equal(ref, capture_state(second))

    def test_uniform_serial(self, tmp_path):
        self.parity(uniform_session, 6, 3, tmp_path)

    def test_uniform_with_energy_history(self, tmp_path):
        self.parity(uniform_session, 6, 3, tmp_path, record_energy=True)

    def test_domain_decomposed_threads(self, tmp_path):
        self.parity(
            lambda: uniform_session(backend="threads", shards=2,
                                    domains=(2, 1, 1)),
            6, 2, tmp_path, record_energy=True)

    def test_snapshot_portable_across_split_and_backend(self, tmp_path):
        """A snapshot from a serial single-domain run restores into a
        threaded, domain-decomposed session — those parity axes are
        excluded from the config fingerprint by design.  The shard
        count stays pinned: it fixes the deposition merge order."""
        path = str(tmp_path / "s.ckpt")
        with uniform_session() as full:
            run_steps(full, 6)
            ref = capture_state(full)
        with uniform_session() as first:
            run_steps(first, 3)
            first.save(path)
        with uniform_session(backend="threads",
                             domains=(1, 2, 1)) as second:
            second.restore(path)
            run_steps(second, 3)
            assert_state_equal(ref, capture_state(second))

    def test_a_capture_does_not_follow_the_run(self):
        """The step rewrites the grid arrays and the particle store in
        place (push, wrap, window shift), so a capture holds copies: two
        more steps leave its arrays as they were, and restoring them
        into a fresh session resumes the run bit for bit."""
        def make():
            return lwfa_session(tile_size=(8, 8, 16),
                                strategy="MatrixPIC (FullOpt)")

        with make() as session:
            run_steps(session, 4)
            meta, arrays = capture_state(session)
            frozen = {name: array.copy() for name, array in arrays.items()}
            shifted = session.moving_window.total_shift_cells
            run_steps(session, 2)
            assert session.moving_window.total_shift_cells > shifted
            for name, array in arrays.items():
                assert array.tobytes() == frozen[name].tobytes(), name
            after = capture_state(session)
        with make() as resumed:
            restore_state(resumed, meta, arrays)
            run_steps(resumed, 2)
            assert_state_equal(after, capture_state(resumed))

    def test_shard_count_stays_in_fingerprint(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        with uniform_session() as first:
            run_steps(first, 1)
            first.save(path)
        with uniform_session(backend="threads", shards=3) as other:
            with pytest.raises(SnapshotMismatchError):
                other.restore(path)

    def test_lwfa_moving_window(self, tmp_path):
        """Moving-window runs exercise the window accumulator, the grid
        origin shift and the window's refill stream."""
        self.parity(lwfa_session, 8, 5, tmp_path, record_energy=True)
        with lwfa_session() as probe:
            run_steps(probe, 8)
            assert probe.moving_window.total_shift_cells > 0

    def test_lwfa_matrix_pic(self, tmp_path):
        """The ``lwfa-mpic`` benchmark's smoke shape: every step the
        migration regroup leaves the tiles in cell order for the sorter
        to adopt.  The restored session's first deposit has no such
        handoff and re-sorts instead, to the same bits."""
        self.parity(
            lambda: lwfa_session(tile_size=(8, 8, 16),
                                 strategy="MatrixPIC (FullOpt)"),
            8, 5, tmp_path, record_energy=True)

    def test_matrix_pic_qsp(self, tmp_path):
        """The block-product kernel on the incremental sorter's order:
        sorter state rebuilt after a restore must hand the kernel the
        same within-cell sequences, or J moves in the last ulp."""
        self.parity(
            lambda: uniform_session(order=3, strategy="MatrixPIC (FullOpt)",
                                    backend="threads", shards=2),
            5, 2, tmp_path, record_energy=True)

    @settings(max_examples=6, deadline=None)
    @given(
        backend=st.sampled_from(["serial", "threads"]),
        shards=st.integers(1, 3),
        domains=st.sampled_from([(1, 1, 1), (2, 1, 1), (1, 2, 1)]),
        k=st.integers(1, 3),
    )
    def test_parity_over_random_tuples(self, backend, shards, domains,
                                       k, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("ckpt-prop")
        self.parity(
            lambda: uniform_session(backend=backend, shards=shards,
                                    domains=domains),
            4, k, tmp_path)


def hot_tile_session(configuration):
    """One periodic 8^3 tile at PPC 8 in a 0.3c plasma: no particle
    leaves the tile, and particles change cells every step, so a sorted
    configuration carries its tile's sort state across a save."""
    workload = UniformPlasmaWorkload(n_cell=(8, 8, 8), tile_size=(8, 8, 8),
                                     ppc=8, shape_order=1)
    return hot_plasma_session(workload,
                              deposition=make_strategy(configuration))


class TestSortState:
    @pytest.mark.parametrize("configuration", available_configurations())
    def test_a_kept_population_resumes_bit_for_bit(self, configuration):
        """3 steps against 2 + capture + restore + 1.  Without the sort
        state the restored tile was counting-sorted and permuted where
        the uninterrupted run followed its GPMA: the store and ids moved
        under ``MatrixPIC (FullOpt)``, the fields too under
        ``Baseline+IncrSort``."""
        with hot_tile_session(configuration) as full:
            run_steps(full, 3)
            ref = capture_state(full)
        with hot_tile_session(configuration) as first:
            run_steps(first, 2)
            meta, arrays = capture_state(first)
        with hot_tile_session(configuration) as second:
            restore_state(second, meta, arrays)
            run_steps(second, 1)
            assert_state_equal(ref, capture_state(second))

    def test_a_capture_does_not_build_the_gpma(self):
        """A fresh sort state defers its GPMA build to the first
        incremental update; a capture holds the bins only, and restores
        a state that builds it when the run does."""
        with hot_tile_session("MatrixPIC (FullOpt)") as session:
            run_steps(session, 1)  # the first deposit's global sort
            (tile,) = session.containers[0].nonempty_tiles()
            meta, arrays = capture_state(session)
            assert not tile.sorter._built
            assert [name for name in arrays if ".sort." in name] \
                == ["c0.sort.t0.bins"]
            assert meta["containers"][0]["keeps_cell_order"] == [0]
            run_steps(session, 1)  # an incremental update builds it
            assert tile.sorter._built
            meta, arrays = capture_state(session)
            assert "c0.sort.t0.gpma.local_index" in arrays
        with hot_tile_session("MatrixPIC (FullOpt)") as restored:
            restore_state(restored, meta, arrays)
            assert_state_equal((meta, arrays), capture_state(restored))

    def test_the_policy_statistics_are_restored(self):
        with hot_tile_session("MatrixPIC (FullOpt)") as session:
            run_steps(session, 3)
            meta, arrays = capture_state(session)
            stats = session.deposition.rank_stats
        assert meta["deposition"]["rank_stats"]["steps_since_sort"] == 3
        with hot_tile_session("MatrixPIC (FullOpt)") as restored:
            restore_state(restored, meta, arrays)
            assert restored.deposition.rank_stats == stats
            assert restored.deposition.global_sorts_performed \
                == meta["deposition"]["global_sorts_performed"]

    def test_another_configuration_is_refused(self):
        with hot_tile_session("MatrixPIC (FullOpt)") as session:
            run_steps(session, 1)
            meta, arrays = capture_state(session)
        with hot_tile_session("Baseline+IncrSort") as other:
            with pytest.raises(SnapshotMismatchError,
                               match="'MatrixPIC \\(FullOpt\\)'"):
                restore_state(other, meta, arrays)

    def test_a_version_1_snapshot_restores_without_sort_state(self,
                                                              tmp_path):
        """What a version-1 snapshot held, it still restores: the tiles
        come back unsorted and the policy as the session built it."""
        path = str(tmp_path / "v1.ckpt")
        with hot_tile_session("MatrixPIC (FullOpt)") as session:
            run_steps(session, 2)
            meta, arrays = capture_state(session)
        meta["state_version"] = 1
        del meta["deposition"]
        for entry in meta["containers"]:
            del entry["keeps_cell_order"], entry["sort_states"]
        write_snapshot(path, meta, {name: array for name, array
                                    in arrays.items() if ".sort." not in name})
        with hot_tile_session("MatrixPIC (FullOpt)") as restored:
            restored.restore(path)
            (tile,) = restored.containers[0].nonempty_tiles()
            assert tile.sorter is None and not tile.keeps_cell_order
            assert restored.step_index == 2
            assert restored.deposition.global_sorts_performed == 0
            got = capture_state(restored)[1]
            for name, array in arrays.items():
                if ".sort." not in name:
                    assert got[name].tobytes() == array.tobytes(), name


class TestRestoreGuards:
    def test_config_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        with uniform_session() as session:
            run_steps(session, 1)
            session.save(path)
        workload = UniformPlasmaWorkload(
            n_cell=(8, 8, 8), tile_size=(4, 4, 4), ppc=27, max_steps=4)
        with Session.from_workload(workload) as other:
            with pytest.raises(SnapshotMismatchError,
                               match="different simulation configuration"):
                other.restore(path)

    def test_corrupt_snapshot_rejected(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        with uniform_session() as session:
            run_steps(session, 1)
            session.save(path)
            flip_byte(path)
            with pytest.raises(CorruptSnapshotError):
                session.restore(path)

    def test_unknown_state_version_rejected(self, tmp_path):
        path = str(tmp_path / "s.ckpt")
        with uniform_session() as session:
            run_steps(session, 1)
            meta, arrays = capture_state(session)
            meta["state_version"] = 999
            write_snapshot(path, meta, arrays)
            with pytest.raises(SnapshotMismatchError, match="version"):
                session.restore(path)


# ----------------------------------------------------------------------
# the periodic hook
# ----------------------------------------------------------------------

class TestCheckpointHook:
    def test_periodic_snapshots_and_resume(self, tmp_path):
        directory = str(tmp_path / "ck")
        with lwfa_session() as full:
            run_steps(full, 6, record_energy=True)
            ref = capture_state(full)
        with lwfa_session() as first:
            hook = CheckpointHook(directory, every=2)
            first.pipeline.add_step_hook(hook)
            run_steps(first, 4, record_energy=True)
            assert [step for step, _ in list_snapshots(directory)] == [2, 4]
        loaded = latest_valid_snapshot(directory)
        assert loaded is not None and loaded.step == 4
        assert loaded.meta["step_index"] == 4
        with lwfa_session() as second:
            second.restore(loaded.path)
            run_steps(second, 2, record_energy=True)
            assert_state_equal(ref, capture_state(second))

    def test_rejects_bad_intervals(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointHook(str(tmp_path), every=0)

    def test_effects_use_known_resources(self):
        from stage_effects import RESOURCES

        hook = CheckpointHook("unused")
        assert hook.reads <= set(RESOURCES)
        assert hook.writes <= set(RESOURCES)
        assert hook.writes <= hook.reads


def test_a_resume_reads_its_snapshot_once(tmp_path):
    """``run_spec(..., resume=True)`` restores the snapshot
    ``latest_valid_snapshot`` read and verified, without reading the file
    a second time."""
    directory = str(tmp_path / "ck")
    (spec,) = expand_request({
        "workload": "uniform", "n_cell": [8, 8, 8], "tile_size": [4, 4, 4],
        "ppc": [1], "configurations": ["Baseline"], "steps": 3})
    run_spec(ExperimentSpec.from_dict({**spec.to_dict(), "steps": 1}),
             checkpoint_dir=directory, checkpoint_every=1)
    reads = []

    def counted(path):
        reads.append(path)
        return read_snapshot(path)

    with mock.patch.object(ckpt.store, "read_snapshot", counted), \
            mock.patch.object(ckpt.session, "read_snapshot", counted):
        run_spec(spec, checkpoint_dir=directory, resume=True)
    assert reads == [snapshot_path(directory, 2)]


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------

class TestRunCLI:
    ARGS = ["run", "--workload", "uniform", "--n-cell", "8,8,8",
            "--tile-size", "4,4,4", "--ppc", "8", "--record-energy",
            "--format", "json"]

    def run_json(self, extra, capsys):
        assert main(self.ARGS + extra) == 0
        captured = capsys.readouterr()
        return json.loads(captured.out), captured.err

    @staticmethod
    def stable(payload):
        return {key: value for key, value in payload.items()
                if "seconds" not in key}

    def test_checkpoint_then_resume_matches_uninterrupted(self, tmp_path,
                                                          capsys):
        directory = str(tmp_path / "ck")
        full, _ = self.run_json(["--steps", "6"], capsys)
        part, _ = self.run_json(
            ["--steps", "3", "--checkpoint-dir", directory,
             "--checkpoint-every", "1"], capsys)
        assert [step for step, _ in list_snapshots(directory)] == [1, 2, 3]
        resumed, err = self.run_json(
            ["--steps", "6", "--checkpoint-dir", directory, "--resume"],
            capsys)
        assert "resumed from" in err
        assert self.stable(resumed) == self.stable(full)

    @pytest.mark.parametrize("configuration",
                             ["MatrixPIC (FullOpt)", "Baseline+IncrSort"])
    def test_a_sorted_configuration_resumes_bit_for_bit(
            self, configuration, tmp_path, capsys):
        """The CI smoke's sorted legs: one 8^3 tile keeps its population,
        so its GPMA and the policy's statistics cross the save point; at
        10 + 10 steps the policy's global sort falls after it."""
        directory = str(tmp_path / "ck")
        shape = ["--configuration", configuration, "--tile-size", "8,8,8"]
        full, _ = self.run_json(shape + ["--steps", "20"], capsys)
        self.run_json(shape + ["--steps", "10", "--checkpoint-dir",
                               directory, "--checkpoint-every", "10"],
                      capsys)
        resumed, err = self.run_json(
            shape + ["--steps", "20", "--checkpoint-dir", directory,
                     "--resume"], capsys)
        assert "(step 10)" in err
        assert self.stable(resumed) == self.stable(full)

    def test_resume_without_snapshots_runs_from_scratch(self, tmp_path,
                                                        capsys):
        directory = str(tmp_path / "empty")
        full, _ = self.run_json(["--steps", "4"], capsys)
        resumed, err = self.run_json(
            ["--steps", "4", "--checkpoint-dir", directory, "--resume"],
            capsys)
        assert "resumed from" not in err
        assert self.stable(resumed) == self.stable(full)

    def test_resume_skips_corrupt_falls_back_to_older(self, tmp_path,
                                                      capsys):
        directory = str(tmp_path / "ck")
        full, _ = self.run_json(["--steps", "6"], capsys)
        self.run_json(["--steps", "3", "--checkpoint-dir", directory,
                       "--checkpoint-every", "1"], capsys)
        truncate_file(snapshot_path(directory, 3))
        resumed, err = self.run_json(
            ["--steps", "6", "--checkpoint-dir", directory, "--resume"],
            capsys)
        assert "step-00000002.ckpt" in err
        assert self.stable(resumed) == self.stable(full)

    @pytest.mark.parametrize("changed", (["--ppc", "64"], ["--shards", "2"]))
    def test_resume_onto_another_configuration_is_a_usage_error(
            self, changed, tmp_path, capsys):
        directory = str(tmp_path / "ck")
        self.run_json(["--steps", "1", "--checkpoint-dir", directory,
                       "--checkpoint-every", "1"], capsys)
        assert main(self.ARGS + changed + [
            "--steps", "2", "--checkpoint-dir", directory, "--resume"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot resume from ")
        assert "different simulation configuration" in captured.err
        assert "Traceback" not in captured.err

    def test_unusable_checkpoint_directory_fails_before_the_first_step(
            self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        assert main(self.ARGS + [
            "--steps", "1", "--checkpoint-every", "1",
            "--checkpoint-dir", str(blocker / "ck")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: cannot use checkpoint directory: ")
        assert "Traceback" not in captured.err

    def test_default_directory_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ckpt.CKPT_DIR_ENV, str(tmp_path / "env-ck"))
        assert ckpt.default_checkpoint_dir() == str(tmp_path / "env-ck")
        monkeypatch.delenv(ckpt.CKPT_DIR_ENV)
        assert ckpt.default_checkpoint_dir() == ckpt.DEFAULT_CHECKPOINT_DIR
