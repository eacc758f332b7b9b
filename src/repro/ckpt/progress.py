"""Campaign-level progress checkpointing (auto-resume for sweeps).

A campaign's unit of recovery is the *cell*: individual cells are
deterministic and cheap relative to a whole sweep, so the progress file
records completed cells' result payloads keyed by their content-derived
spec key (``ExperimentSpec.cache_key()``), not mid-cell simulation
state.  On ``--resume`` the campaign adopts every recorded cell without
re-execution and computes only what is missing — a SIGKILL'd sweep
re-run with ``--resume`` produces byte-identical deterministic results
to an uninterrupted run.

The file is a :class:`repro.ckpt.recordlog.RecordLog` (kind
``campaign-progress``, one record per completed cell): checksummed,
atomically rewritten, and a corrupt or torn file downgrades to "no
progress recorded" with a logged event — see that module for the
durability contract.

This deliberately complements — not duplicates — the result cache: the
cache is content-addressed, shared and long-lived; the progress file is
per-campaign-directory, works with ``--no-cache``, and is the thing the
CI kill-and-resume smoke exercises in isolation.
"""

from __future__ import annotations

import os
from typing import Any, Dict

from repro.ckpt.recordlog import RecordLog
from repro.obs.registry import NULL_TELEMETRY, Telemetry

__all__ = ["PROGRESS_FILENAME", "CampaignProgress"]

#: progress checkpoint filename inside the campaign checkpoint directory
PROGRESS_FILENAME = "campaign.ckpt"

_PROGRESS_KIND = "campaign-progress"


class CampaignProgress:
    """Durable record of a campaign's completed cells.

    ``record`` buffers one completed cell and rewrites the file every
    ``every`` completions; ``flush`` forces the rewrite.  Writes are
    best-effort: an unwritable directory degrades checkpointing to a
    logged warning instead of failing the sweep itself.
    """

    def __init__(self, directory: str, every: int = 1,
                 obs: Telemetry = NULL_TELEMETRY) -> None:
        self.path = os.path.join(str(directory), PROGRESS_FILENAME)
        self._log = RecordLog(self.path, kind=_PROGRESS_KIND,
                              field="completed", every=every, obs=obs)

    def load(self) -> Dict[str, Dict[str, Any]]:
        """Adopt the on-disk record; returns ``{key: {spec, result}}``.

        A missing, corrupt or torn file yields an empty record (the
        campaign simply recomputes), with a warning when the file exists
        but does not verify.
        """
        return self._log.load()

    def record(self, key: str, spec_payload: Dict[str, Any],
               result_payload: Dict[str, Any]) -> None:
        """Buffer one completed cell; rewrites the file on the interval."""
        self._log.put(key, {"spec": spec_payload, "result": result_payload})

    def flush(self) -> None:
        """Atomically rewrite the progress file if anything is buffered."""
        self._log.flush()
