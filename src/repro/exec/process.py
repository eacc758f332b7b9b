"""Chunked process-shard executor backend.

Each :class:`~repro.exec.base.TileTask` carries a module-level function
plus a picklable payload (tile SoA arrays, a :class:`repro.config.GridConfig`,
scalars).  The backend ships one task per shard to a persistent worker
pool — chunking tiles into shards amortises the IPC cost over many
tiles — and returns the pickled results in task order.

Because workers live in separate address spaces this backend cannot see
in-place mutation (``shares_memory = False``): callers use functional
shard workers that *return* their scratch buffers, and the caller merges
them in shard order, which keeps the results bitwise identical to the
serial and threaded backends under the determinism contract of
:mod:`repro.exec.base`.

The pool is a :class:`repro.exec.pool.SupervisedPool`, which owns the
whole failure story (fork-preferring start, dead workers, sandboxes that
forbid subprocesses): shards it cannot finish are recomputed inline
exactly once, and :attr:`ProcessShardExecutor.degraded` records that the
executor gave up on pools so benchmarks can report it.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.exec.base import BACKEND_PROCESSES, TileExecutor, TileTask
from repro.exec.pool import SupervisedPool
from repro.obs.registry import telemetry


class ProcessShardExecutor(TileExecutor):
    """Run each tile task in a worker process, preserving task order."""

    name = BACKEND_PROCESSES
    shares_memory = False

    def __init__(self, num_shards: int = 2):
        super().__init__(num_shards)
        self.pool = SupervisedPool(num_shards, owner="executor")

    @property
    def degraded(self) -> bool:
        """True once shards run inline for good (see :class:`SupervisedPool`)."""
        return self.pool.degraded

    def run(self, tasks: Sequence[TileTask]) -> List[Any]:
        handle = telemetry()
        handle.count("exec.shard_batches")
        handle.count("exec.shard_tasks", len(tasks))
        if len(tasks) <= 1:
            return [task() for task in tasks]
        with handle.span("shard_batch", cat="exec",
                         args={"tasks": len(tasks)}):
            return self.pool.run(tasks)

    def shutdown(self) -> None:
        self.pool.shutdown()
