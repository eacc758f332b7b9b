"""Pluggable tile execution engine for the PIC step loop.

Every per-tile stage of the Matrix-PIC cycle (push, boundary/redistribute
scan, current deposition, energy reduction) calls :func:`map_shards`,
which turns it into a list of :class:`TileTask` objects — one per
contiguous *shard* of tiles — and hands them to a :class:`TileExecutor`:

``serial``
    The reference backend: tasks run inline in submission order.
``threads``
    A shared :class:`~concurrent.futures.ThreadPoolExecutor`; NumPy's GIL
    release inside large ufunc loops overlaps shard arithmetic on
    multi-core machines.

Per-tile work stays in the caller's address space (the paper's execution
model is shared-memory many-core: tile-local accumulators and a sorter
attached to the tile).  Worker *processes* are for coarse work — whole
campaign cells and served jobs — and are supervised in exactly one place,
:class:`repro.exec.pool.SupervisedPool` — lazy fork-preferring pool,
dead-worker recovery (re-run off-pool once, rebuild once, then degrade),
one ``factory`` seam for fault injection.
:class:`repro.analysis.campaign.Campaign` and the ``repro.serve`` worker
pool are its two thin callers.

Both backends obey the determinism contract of :mod:`repro.exec.base`:
fixed contiguous partition, private per-shard scratch state, serial merge
in shard order — so for a given shard count the deposited currents and
merged :class:`~repro.hardware.counters.KernelCounters` are bitwise
identical whichever backend ran the shards.

The executor belongs to the run (``session.executor``,
:class:`repro.api.Session`); stages shard their tile work over it, so
switching backends never changes the stage set — only how each stage
runs.
"""

from repro.exec.base import (
    BACKEND_SERIAL,
    BACKEND_THREADS,
    SUPPORTED_BACKENDS,
    TileExecutor,
    TileShard,
    TileTask,
    map_shards,
    partition_shards,
    run_shards,
    shard_items,
)
from repro.exec.factory import create_executor
from repro.exec.pool import SupervisedPool
from repro.exec.serial import SerialExecutor
from repro.exec.threaded import ThreadTileExecutor

__all__ = [
    "BACKEND_SERIAL",
    "BACKEND_THREADS",
    "SUPPORTED_BACKENDS",
    "TileExecutor",
    "TileShard",
    "TileTask",
    "map_shards",
    "partition_shards",
    "run_shards",
    "shard_items",
    "create_executor",
    "SerialExecutor",
    "SupervisedPool",
    "ThreadTileExecutor",
]
