"""Checkpoint/restart with bitwise-identical resume.

``repro.ckpt`` snapshots full :class:`~repro.api.Session` state —
particle arrays, field grids, step index, moving-window origin, both
RNG streams, energy history and deposition counters — into
checksummed, atomically written, torn-write tolerant files, and
restores them such that a run of ``N`` steps is **bitwise identical**
to ``k`` steps + save + restore + ``N - k`` steps, for any backend,
shard count and domain split (the same pin as domain parity).

Layout:

* :mod:`repro.ckpt.format` — the deterministic binary container
  (magic + JSON header + raw arrays + sha256 trailer).  With an empty
  array table it is also the ``repro.serve`` job journal
  (:class:`repro.serve.queue.JobJournal`).  No cell result is kept
  here: a campaign or served cell is durable in its result-cache entry.
* :mod:`repro.ckpt.session` — capture/restore of the simulation state
  inventory.
* :mod:`repro.ckpt.store` — snapshot directory naming and
  latest-valid selection (corrupt files are skipped, not fatal).
* :mod:`repro.ckpt.hook` — :class:`CheckpointHook`, periodic snapshots
  through the pipeline's post-stage hook seam.

The fault-injection harness that tests the recovery contract (kill
switches, a breaking pool, torn and corrupted files) is
``tests/faults.py``.
"""

from repro.ckpt.format import (
    SNAPSHOT_VERSION,
    CorruptSnapshotError,
    SnapshotError,
    SnapshotMismatchError,
    read_snapshot,
    write_snapshot,
)
from repro.ckpt.hook import CheckpointHook
from repro.ckpt.session import (
    capture_state,
    restore_simulation,
    restore_state,
    save_simulation,
)
from repro.ckpt.store import (
    CKPT_DIR_ENV,
    DEFAULT_CHECKPOINT_DIR,
    LoadedSnapshot,
    default_checkpoint_dir,
    latest_valid_snapshot,
    list_snapshots,
    snapshot_path,
)

__all__ = [
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
]
