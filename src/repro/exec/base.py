"""The tile executor and the one rule that shards per-tile work.

The Matrix-PIC step loop is embarrassingly parallel over particle tiles:
the pusher, the boundary/redistribution scan and current deposition all
operate on one tile at a time.  The :class:`TileExecutor` makes that
parallelism explicit: it runs a list of zero-argument callables — one
per *shard*, a contiguous chunk of tiles — and returns their results
**in shard order**, regardless of the order in which they finished.

Determinism contract
--------------------
:func:`map_shards` is the one place that decides whether per-tile work is
sharded, who runs the shards and in what order their results come back;
every per-tile stage is a caller of it (directly, or through the one
scratch-reduce helper built on :func:`shard_items` / :func:`run_shards`,
:func:`repro.pic.deposition.base.scratch_reduce`).  What it enforces:

1. items are partitioned into contiguous shards — a pure function of the
   item list and the executor's shard count
   (:meth:`TileExecutor.partition`),
2. each shard runs as one task that accumulates into private scratch
   state (zeroed grid buffers, fresh counters, partial sums), never into
   shared state,
3. results are handed back — and merged by the caller — in shard order.

Because scratch buffers start from zero and the merge order is fixed, the
floating-point reduction tree is a pure function of the shard partition —
the ``serial`` and ``threads`` backends are bitwise identical for the
same shard count.  Both run their tasks in the caller's address space: a
shard body mutates its own tiles in place and reads the caller's grid
directly.
"""

from __future__ import annotations

import concurrent.futures
import functools
from typing import Any, Callable, List, Optional, Sequence, TypeVar

from repro.config import ExecutionConfig
from repro.obs.registry import NULL_TELEMETRY, Telemetry

T = TypeVar("T")


class TileExecutor:
    """Runs a stage's shards on the run's backend, preserving shard order.

    ``serial`` runs the shards inline, in order.  ``threads`` runs them
    on a :class:`~concurrent.futures.ThreadPoolExecutor` of
    ``num_shards`` workers, created on first use and released by
    :meth:`shutdown` (or the context-manager protocol); NumPy and BLAS
    release the interpreter lock inside large loops, so shard arithmetic
    can overlap on a multi-core machine.  A failing shard's exception is
    re-raised only after every shard has settled, so none is left
    half-finished in the background.

    Attributes
    ----------
    name:
        The backend, ``"serial"`` or ``"threads"``.
    num_shards:
        Number of shards callers partition into.  A scheduling hint, not
        a hard cap — a container with fewer non-empty tiles gives fewer.
    obs:
        The owning run's telemetry (``exec.*`` accounting of ``threads``).
    """

    def __init__(self, config: ExecutionConfig,
                 obs: Telemetry = NULL_TELEMETRY):
        self.name = config.backend
        self.num_shards = config.num_shards
        self.obs = obs
        self._pool: Optional[concurrent.futures.ThreadPoolExecutor] = None

    def run(self, tasks: Sequence[Callable[[], T]]) -> List[T]:
        """Call every task and return the results in task order."""
        if self.name == "serial":
            return [task() for task in tasks]
        self.obs.count("exec.shard_batches")
        self.obs.count("exec.shard_tasks", len(tasks))
        if len(tasks) <= 1:
            return [task() for task in tasks]
        if self._pool is None:
            self._pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=self.num_shards, thread_name_prefix="repro-tile")
        with self.obs.span("shard_batch", cat="exec",
                           args={"tasks": len(tasks)}):
            futures = [self._pool.submit(task) for task in tasks]
            concurrent.futures.wait(futures)
            # .result() re-raises the first failing task's exception
            return [future.result() for future in futures]

    def shutdown(self) -> None:
        """Release the thread pool, if one was created."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "TileExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    @property
    def is_trivial(self) -> bool:
        """True when the executor cannot outrun the plain serial loop.

        Keyed on the shard count alone — a single-shard thread pool gains
        nothing either — so that *every* backend takes the same
        (inline) code path at one shard.  Deciding this per backend would
        break the cross-backend bitwise contract: the inline loop deposits
        straight into the possibly non-zero grid, the sharded path
        accumulates in zeroed scratch first, and the two reduction trees
        differ once the grid already holds another species' currents.
        """
        return self.num_shards == 1

    def partition(self, items: Sequence[T]) -> List[Sequence[T]]:
        """``items`` as at most ``num_shards`` contiguous slices.

        The split follows :func:`numpy.array_split` (the first shards get
        the extra items) but never yields an empty shard: with fewer items
        than shards it is one item per shard.  A pure function of
        ``(len(items), num_shards)`` — the cornerstone of the
        cross-backend determinism contract.
        """
        shards = min(self.num_shards, len(items))
        if shards == 0:
            return []
        base, extra = divmod(len(items), shards)
        bounds = [index * base + min(index, extra)
                  for index in range(shards + 1)]
        return [items[start:stop] for start, stop in zip(bounds, bounds[1:])]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TileExecutor({self.name!r}, num_shards={self.num_shards})"


def shard_items(executor: Optional[TileExecutor], items: Sequence[T]
                ) -> List[Sequence[T]]:
    """The shards ``items`` run as: one (the whole list) or the partition.

    The only place that decides *whether* to shard.  No executor, a
    one-shard executor or at most one item all give a single shard, which
    callers run inline against their real target — so every backend takes
    the same reduction tree at one shard.
    """
    if executor is None or executor.is_trivial or len(items) <= 1:
        return [items]
    return executor.partition(items)


def run_shards(executor: Optional[TileExecutor], fn: Callable[..., Any],
               shards: Sequence[Any], *args: Any) -> List[Any]:
    """``fn(shard, *args)`` for every shard; results in shard order.

    A single shard is one inline call on the caller's thread.  Several
    shards become one task each, run by the executor.
    """
    if len(shards) == 1:
        return [fn(shards[0], *args)]
    return executor.run([functools.partial(fn, shard, *args)
                         for shard in shards])


def map_shards(executor: Optional[TileExecutor], fn: Callable[..., Any],
               items: Sequence[T], *args: Any) -> List[Any]:
    """Fan ``fn(shard_of_items, *args)`` out over the executor's shards.

    :func:`shard_items` then :func:`run_shards`: the single rule every
    per-tile stage follows.
    """
    return run_shards(executor, fn, shard_items(executor, items), *args)
