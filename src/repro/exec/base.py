"""Tile executor protocol and shard partitioning.

The Matrix-PIC step loop is embarrassingly parallel over particle tiles:
the pusher, the boundary/redistribution scan and current deposition all
operate on one tile at a time.  The executor subsystem makes that
parallelism explicit and pluggable: a :class:`TileExecutor` runs a list of
:class:`TileTask` objects — one per *shard*, a contiguous chunk of tiles —
and returns their results **in task order**, regardless of the order in
which the backend finished them.

Determinism contract
--------------------
:func:`map_shards` is the one place that decides whether per-tile work is
sharded, who runs the shards and in what order their results come back;
every per-tile stage is a caller of it (directly, or through the one
scratch-reduce helper built on :func:`shard_items` / :func:`run_shards`,
:func:`repro.pic.deposition.base.scratch_reduce`).  What it enforces:

1. items are partitioned into contiguous shards — a pure function of the
   item list and the executor's shard count (:func:`partition_shards`),
2. each shard runs as one task that accumulates into private scratch
   state (zeroed grid buffers, fresh counters, partial sums), never into
   shared state,
3. results are handed back — and merged by the caller — in shard order.

Because scratch buffers start from zero and the merge order is fixed, the
floating-point reduction tree is a pure function of the shard partition —
the serial and threaded backends are bitwise identical for the same shard
count.  Both run their tasks in the caller's address space: a shard body
mutates its own tiles in place and reads the caller's grid directly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.obs.registry import NULL_TELEMETRY, Telemetry

T = TypeVar("T")

#: Backend names accepted by :class:`repro.config.ExecutionConfig`.
BACKEND_SERIAL = "serial"
BACKEND_THREADS = "threads"
SUPPORTED_BACKENDS = (BACKEND_SERIAL, BACKEND_THREADS)


@dataclass(frozen=True)
class TileTask:
    """One unit of executor work: a function applied to a shard.

    ``args`` is the positional payload of ``fn``.  Tile executors simply
    invoke the task; :class:`repro.exec.pool.SupervisedPool` ships
    ``(fn, args)`` to a worker process, which needs a module-level ``fn``
    and a picklable payload and result.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()

    def __call__(self) -> Any:
        return self.fn(*self.args)


@dataclass(frozen=True)
class TileShard:
    """A contiguous chunk of a container's tiles, the unit of scheduling."""

    #: position of the shard in the partition (also its merge rank)
    index: int
    #: indices into the caller's tile list, in ascending order
    tile_indices: Tuple[int, ...] = field(default_factory=tuple)

    @property
    def num_tiles(self) -> int:
        return len(self.tile_indices)


def partition_shards(num_items: int, num_shards: int) -> List[TileShard]:
    """Split ``range(num_items)`` into at most ``num_shards`` contiguous shards.

    The split follows :func:`numpy.array_split` semantics (first shards get
    the extra items) but never emits an empty shard; with fewer items than
    shards the partition degenerates to one item per shard.  The result is
    a pure function of ``(num_items, num_shards)`` — the cornerstone of the
    cross-backend determinism contract.
    """
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    if num_items <= 0:
        return []
    shards = min(num_shards, num_items)
    base, extra = divmod(num_items, shards)
    out: List[TileShard] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        out.append(TileShard(index=index,
                             tile_indices=tuple(range(start, start + size))))
        start += size
    return out


class TileExecutor(abc.ABC):
    """Executes tile tasks, one per shard, preserving task order.

    Attributes
    ----------
    name:
        Backend identifier (one of :data:`SUPPORTED_BACKENDS`).
    num_shards:
        Target number of shards callers should partition into.  This is a
        scheduling hint, not a hard cap — callers may submit fewer tasks
        when a container has fewer non-empty tiles.
    obs:
        The owning run's telemetry registry (``exec.*`` accounting).
    """

    name: str = "abstract"

    def __init__(self, num_shards: int = 1,
                 obs: Telemetry = NULL_TELEMETRY):
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        self.num_shards = num_shards
        self.obs = obs

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def run(self, tasks: Sequence[TileTask]) -> List[Any]:
        """Run all tasks and return their results in task order."""

    def shutdown(self) -> None:
        """Release any worker pools held by the backend."""

    def __enter__(self) -> "TileExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
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

    def partition(self, items: Sequence[T]) -> List[List[T]]:
        """Chunk ``items`` into per-shard lists following the fixed partition."""
        shards = partition_shards(len(items), self.num_shards)
        return [[items[i] for i in shard.tile_indices] for shard in shards]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(num_shards={self.num_shards})"


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
    shards become one :class:`TileTask` each, run by the executor.
    """
    if len(shards) == 1:
        return [fn(shards[0], *args)]
    return executor.run([TileTask(fn, (shard, *args)) for shard in shards])


def map_shards(executor: Optional[TileExecutor], fn: Callable[..., Any],
               items: Sequence[T], *args: Any) -> List[Any]:
    """Fan ``fn(shard_of_items, *args)`` out over the executor's shards.

    :func:`shard_items` then :func:`run_shards`: the single rule every
    per-tile stage follows.
    """
    return run_shards(executor, fn, shard_items(executor, items), *args)
