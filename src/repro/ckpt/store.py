"""Snapshot directory layout and latest-valid selection.

A checkpoint directory holds one file per snapshot, named
``step-<NNNNNNNN>.ckpt`` (zero-padded so lexicographic order is step
order).  ``latest_valid_snapshot`` walks the directory newest-first and
returns the first snapshot that verifies, silently skipping corrupt or
torn files — the auto-resume contract is "resume from the newest intact
state", never "fail because the newest write was interrupted".
"""

from __future__ import annotations

import logging
import os
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.ckpt.format import SnapshotError, read_snapshot
from repro.obs.log import log_event
from repro.obs.registry import NULL_TELEMETRY, Telemetry

__all__ = [
    "CKPT_DIR_ENV",
    "DEFAULT_CHECKPOINT_DIR",
    "LoadedSnapshot",
    "default_checkpoint_dir",
    "latest_valid_snapshot",
    "list_snapshots",
    "snapshot_path",
]

logger = logging.getLogger(__name__)

#: environment override for the default checkpoint directory
CKPT_DIR_ENV = "REPRO_CKPT_DIR"

#: fallback checkpoint directory (relative to the working directory)
DEFAULT_CHECKPOINT_DIR = ".repro-ckpt"

_SNAPSHOT_RE = re.compile(r"^step-(\d{8})\.ckpt$")


@dataclass(frozen=True)
class LoadedSnapshot:
    """A verified snapshot: its step, path and decoded contents."""

    step: int
    path: str
    meta: Dict[str, Any]
    arrays: Dict[str, np.ndarray]


def default_checkpoint_dir() -> str:
    """``$REPRO_CKPT_DIR`` when set, else :data:`DEFAULT_CHECKPOINT_DIR`."""
    return os.environ.get(CKPT_DIR_ENV) or DEFAULT_CHECKPOINT_DIR


def snapshot_path(directory: str, step: int) -> str:
    """The canonical snapshot filename for ``step`` under ``directory``."""
    return os.path.join(directory, f"step-{int(step):08d}.ckpt")


def list_snapshots(directory: str) -> List[Tuple[int, str]]:
    """``(step, path)`` pairs found in ``directory``, ascending by step.

    Only files matching the canonical naming scheme are considered; the
    files are *not* verified (use :func:`latest_valid_snapshot` for
    that).  A missing directory is an empty listing.
    """
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    found = []
    for name in names:
        match = _SNAPSHOT_RE.match(name)
        if match is not None:
            found.append((int(match.group(1)),
                          os.path.join(directory, name)))
    return sorted(found)


def latest_valid_snapshot(directory: str, obs: Telemetry = NULL_TELEMETRY
                          ) -> Optional[LoadedSnapshot]:
    """The newest snapshot in ``directory`` that verifies, or ``None``.

    Corrupt, torn or unreadable snapshot files are skipped with a logged
    warning (mirrored into ``obs``) so an interrupted final write falls
    back to the previous intact snapshot instead of aborting the resume.
    """
    for step, path in reversed(list_snapshots(directory)):
        try:
            meta, arrays = read_snapshot(path)
        except (SnapshotError, OSError) as exc:
            log_event(
                "ckpt.snapshot_skipped",
                "skipping unusable snapshot %s: %s", path, exc,
                logger=logger, obs=obs, path=path)
            continue
        return LoadedSnapshot(step=step, path=path, meta=meta,
                              arrays=arrays)
    return None
