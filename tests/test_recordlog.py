"""The one record log (repro.ckpt.recordlog) and its on-disk format.

``JobJournal`` is the one user of ``RecordLog``; its file must stay
**byte-identical** to what the pre-RecordLog code wrote, and files
written by that code must still load.  The golden file under
``tests/golden/`` was written by the commit before ``RecordLog``
(a97b89c) from the record sequence below; the sha256 constant was
computed there.
"""

from __future__ import annotations

import hashlib
import os
import shutil

import pytest

from repro.ckpt import RecordLog
from repro.ckpt.faults import flip_byte
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
# golden files: same bytes as the parent commit, parent files load
# ----------------------------------------------------------------------

class TestGoldenFiles:
    @pytest.mark.parametrize("writer, filename, digest", [
        (write_journal, QUEUE_FILENAME, JOURNAL_SHA256),
    ])
    def test_fixed_sequence_is_byte_identical_to_parent(
            self, tmp_path, writer, filename, digest):
        written = file_bytes(writer(tmp_path))
        assert hashlib.sha256(written).hexdigest() == digest
        assert written == file_bytes(os.path.join(GOLDEN, filename))

    def test_parent_written_journal_loads_and_continues_the_sequence(
            self, tmp_path):
        shutil.copy(os.path.join(GOLDEN, QUEUE_FILENAME), tmp_path)
        journal = JobJournal(str(tmp_path))
        jobs = journal.load()
        assert sorted(jobs) == ["job-000001", "job-000002"]
        assert jobs["job-000001"]["status"] == "completed"
        assert journal.new_job_id() == "job-000003"


# ----------------------------------------------------------------------
# RecordLog itself
# ----------------------------------------------------------------------

def make_log(tmp_path, **overrides):
    params = dict(kind="test-kind", field="items", version=2, every=1)
    params.update(overrides)
    return RecordLog(str(tmp_path / "log.ckpt"), **params)


class TestRecordLog:
    def test_meta_layout_and_round_trip(self, tmp_path):
        log = make_log(tmp_path)
        log.extra["cursor"] = 7
        log.put("a", {"x": 1})
        log.put("a", {"x": 2})  # upsert
        meta, arrays = read_snapshot(log.path)
        assert arrays == {}
        assert meta == {"kind": "test-kind", "version": 2, "cursor": 7,
                        "items": {"a": {"x": 2}}}
        fresh = make_log(tmp_path)
        assert fresh.load() == {"a": {"x": 2}}
        assert fresh.extra == {"cursor": 7}

    def test_version_is_omitted_when_none(self, tmp_path):
        log = make_log(tmp_path, version=None)
        log.put("a", 1)
        meta, _arrays = read_snapshot(log.path)
        assert meta == {"kind": "test-kind", "items": {"a": 1}}
        assert make_log(tmp_path, version=None).load() == {"a": 1}

    def test_interval_buffers_touch_does_not_count_flush_is_idempotent(
            self, tmp_path):
        log = make_log(tmp_path, every=2)
        log.put("a", 1)
        log.touch()
        assert not os.path.exists(log.path)  # one put, below the interval
        log.put("b", 2)
        assert make_log(tmp_path).load() == {"a": 1, "b": 2}
        mtime = os.path.getmtime(log.path)
        log.flush()  # clean: no rewrite
        assert os.path.getmtime(log.path) == mtime
        log.extra["cursor"] = 1
        log.touch()
        log.flush()
        assert make_log(tmp_path).load() == {"a": 1, "b": 2}
        assert read_snapshot(log.path)[0]["cursor"] == 1

    def test_missing_file_is_silently_empty(self, tmp_path):
        obs = Telemetry(ObsConfig(trace=True))
        assert make_log(tmp_path, obs=obs).load() == {}
        assert not obs.events

    def test_corrupt_file_is_empty_with_an_event(self, tmp_path):
        log = make_log(tmp_path)
        log.put("a", 1)
        flip_byte(log.path)
        obs = Telemetry(ObsConfig(trace=True))
        assert make_log(tmp_path, obs=obs).load() == {}
        (event,) = log_events(obs, "recordlog.unusable")
        assert event["kind"] == "test-kind"

    @pytest.mark.parametrize("meta", [
        {"kind": "other-kind", "version": 2, "items": {}},
        {"kind": "test-kind", "version": 3, "items": {}},
        {"kind": "test-kind", "version": 2, "items": ["not", "a", "dict"]},
        {"kind": "test-kind", "version": 2},
    ], ids=["kind", "version", "records-type", "records-missing"])
    def test_foreign_file_is_empty_with_an_event(self, tmp_path, meta):
        obs = Telemetry(ObsConfig(trace=True))
        log = make_log(tmp_path, obs=obs)
        write_snapshot(log.path, meta, {})
        assert log.load() == {}
        (event,) = log_events(obs, "recordlog.not_a_record")
        assert event["kind"] == "test-kind"

    def test_write_failure_is_an_event_not_an_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file where a directory is needed")
        obs = Telemetry(ObsConfig(trace=True))
        log = RecordLog(str(blocker / "log.ckpt"), kind="test-kind",
                        field="items", obs=obs)
        log.put("a", 1)  # must not raise
        log.flush()      # still dirty: tried again
        assert len(log_events(obs, "recordlog.write_failed")) == 2

    def test_rejects_nonpositive_interval(self, tmp_path):
        with pytest.raises(ValueError):
            make_log(tmp_path, every=0)
