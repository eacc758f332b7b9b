"""The job journal (repro.serve.queue.JobJournal) and its on-disk format.

The journal file must stay **byte-identical** to what earlier builds
wrote, and files written by them must still load.  ``serve-queue.ckpt``
under ``tests/golden/`` was written by commit a97b89c from the record
sequence of :func:`write_journal`; the sha256 constant was computed
there.  ``serve-queue-cell-results.ckpt`` holds records in the format
that also stored each cell's spec, result and source (see
``tests/test_serve_restart.py``).
"""

from __future__ import annotations

import hashlib
import os
import shutil

import pytest

from faults import flip_byte
from repro.ckpt.format import read_snapshot, write_snapshot
from repro.obs import ObsConfig, Telemetry
from repro.serve import QUEUE_FILENAME, JobJournal

from helpers import log_events

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

JOURNAL_SHA256 = \
    "5fb2c86fa3c99c7efffd9a49970d7f5dce866577d327fc63063751a21a8e88c8"


def write_journal(directory):
    journal = JobJournal(str(directory), every=3)
    first = journal.new_job_id()
    journal.record({"job_id": first, "tenant": "alice", "status": "queued",
                    "cells": []})
    journal.flush()
    second = journal.new_job_id()
    journal.record({"job_id": second, "tenant": "bob", "status": "queued",
                    "cells": [{"index": 0, "key": "key-a", "result": None}]})
    journal.record({"job_id": first, "tenant": "alice",
                    "status": "completed", "cells": []})
    journal.flush()
    return journal.path


def file_bytes(path):
    with open(path, "rb") as stream:
        return stream.read()


# ----------------------------------------------------------------------
# golden files: same bytes as earlier builds, their files load
# ----------------------------------------------------------------------

class TestGoldenFiles:
    def test_fixed_sequence_is_byte_identical_to_earlier_builds(
            self, tmp_path):
        written = file_bytes(write_journal(tmp_path))
        assert hashlib.sha256(written).hexdigest() == JOURNAL_SHA256
        assert written == file_bytes(os.path.join(GOLDEN, QUEUE_FILENAME))

    @pytest.mark.parametrize("golden, jobs, next_id", [
        (QUEUE_FILENAME, {"job-000001": "completed",
                          "job-000002": "queued"}, "job-000003"),
        ("serve-queue-cell-results.ckpt", {"job-000001": "completed",
                                           "job-000002": "running"},
         "job-000003"),
    ])
    def test_earlier_journals_load_and_continue_the_sequence(
            self, tmp_path, golden, jobs, next_id):
        shutil.copy(os.path.join(GOLDEN, golden),
                    os.path.join(tmp_path, QUEUE_FILENAME))
        journal = JobJournal(str(tmp_path))
        records = journal.load()
        assert {job_id: record["status"]
                for job_id, record in records.items()} == jobs
        assert journal.new_job_id() == next_id


# ----------------------------------------------------------------------
# the journal file
# ----------------------------------------------------------------------

class TestJobJournal:
    def test_meta_layout_upsert_and_id_sequence(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        assert journal.load() == {}
        first = journal.new_job_id()
        assert first == "job-000001"
        journal.record({"job_id": first, "status": "queued"})
        journal.record({"job_id": first, "status": "completed"})  # upsert
        meta, arrays = read_snapshot(journal.path)
        assert arrays == {}
        assert meta == {"kind": "serve-queue", "version": 1, "next_seq": 2,
                        "jobs": {first: {"job_id": first,
                                         "status": "completed"}}}

        reloaded = JobJournal(str(tmp_path))
        assert reloaded.load() == {first: {"job_id": first,
                                           "status": "completed"}}
        # the sequence counter survives: ids are never reused
        assert reloaded.new_job_id() == "job-000002"

    def test_interval_buffers_ids_do_not_count_flush_is_idempotent(
            self, tmp_path):
        journal = JobJournal(str(tmp_path), every=2)
        journal.record({"job_id": "a"})
        journal.new_job_id()
        assert not os.path.exists(journal.path)  # one record, below the interval
        journal.record({"job_id": "b"})
        assert sorted(JobJournal(str(tmp_path)).load()) == ["a", "b"]
        mtime = os.path.getmtime(journal.path)
        journal.flush()  # clean: no rewrite
        assert os.path.getmtime(journal.path) == mtime
        journal.new_job_id()
        journal.flush()
        assert read_snapshot(journal.path)[0]["next_seq"] == 3

    def test_missing_file_is_silently_empty(self, tmp_path):
        obs = Telemetry(ObsConfig(trace=True))
        assert JobJournal(str(tmp_path), obs=obs).load() == {}
        assert not obs.events

    def test_corrupt_file_is_empty_with_an_event(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.new_job_id()
        journal.record({"job_id": "job-000001", "status": "queued"})
        flip_byte(journal.path)
        obs = Telemetry(ObsConfig(trace=True))
        assert JobJournal(str(tmp_path), obs=obs).load() == {}
        assert len(log_events(obs, "serve.journal_unusable")) == 1

    @pytest.mark.parametrize("meta", [
        {"kind": "other-kind", "version": 1, "jobs": {}},
        {"kind": "serve-queue", "version": 2, "jobs": {}},
        {"kind": "serve-queue", "version": 1, "jobs": ["not", "a", "dict"]},
        {"kind": "serve-queue", "version": 1},
    ], ids=["kind", "version", "records-type", "records-missing"])
    def test_foreign_file_is_empty_with_an_event(self, tmp_path, meta):
        obs = Telemetry(ObsConfig(trace=True))
        journal = JobJournal(str(tmp_path), obs=obs)
        write_snapshot(journal.path, meta, {})
        assert journal.load() == {}
        assert len(log_events(obs, "serve.journal_unusable")) == 1

    def test_write_failure_is_an_event_not_an_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file where a directory is needed")
        obs = Telemetry(ObsConfig(trace=True))
        journal = JobJournal(str(blocker), obs=obs)
        journal.record({"job_id": "a"})  # must not raise
        journal.flush()                  # still dirty: tried again
        assert len(log_events(obs, "serve.journal_write_failed")) == 2

    def test_rejects_nonpositive_interval(self, tmp_path):
        with pytest.raises(ValueError):
            JobJournal(str(tmp_path), every=0)
