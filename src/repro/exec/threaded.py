"""Thread-pool executor backend.

Shards run on a shared :class:`concurrent.futures.ThreadPoolExecutor`.
NumPy releases the GIL inside large ufunc inner loops, so the pusher's
vector arithmetic and the gather's fancy indexing overlap across shards on
multi-core machines; pure-Python bookkeeping serialises on the GIL but the
per-shard scratch buffers keep results independent of interleaving.

The pool is created lazily on first use and torn down by
:meth:`shutdown` (or the context-manager protocol).  Results are returned
in task order; the first task exception is re-raised in the caller after
all tasks have settled, so no shard is left half-finished in the
background.
"""

from __future__ import annotations

import concurrent.futures
from typing import Any, List, Optional, Sequence

from repro.exec.base import BACKEND_THREADS, TileExecutor, TileTask
from repro.obs.registry import NULL_TELEMETRY, Telemetry


class ThreadTileExecutor(TileExecutor):
    """Run each tile task on a worker thread, preserving task order."""

    name = BACKEND_THREADS

    def __init__(self, num_shards: int = 2,
                 obs: Telemetry = NULL_TELEMETRY):
        super().__init__(num_shards, obs)
        self._pool: Optional[concurrent.futures.ThreadPoolExecutor] = None

    def _ensure_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=self.num_shards,
                thread_name_prefix="repro-tile",
            )
        return self._pool

    def run(self, tasks: Sequence[TileTask]) -> List[Any]:
        handle = self.obs
        handle.count("exec.shard_batches")
        handle.count("exec.shard_tasks", len(tasks))
        if len(tasks) <= 1:
            return [task() for task in tasks]
        pool = self._ensure_pool()
        with handle.span("shard_batch", cat="exec",
                         args={"tasks": len(tasks)}):
            futures = [pool.submit(task) for task in tasks]
            concurrent.futures.wait(futures)
            # .result() re-raises the first failing task's exception in
            # order
            return [f.result() for f in futures]

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
