"""Tile execution for the PIC step loop.

Every per-tile stage of the Matrix-PIC cycle (push, boundary/redistribute
scan, current deposition, energy reduction) calls :func:`map_shards`,
which splits its tiles into contiguous *shards* and hands one
zero-argument task per shard to the run's :class:`TileExecutor`, built
from :class:`repro.config.ExecutionConfig`:

``serial``
    The reference backend: shards run inline in shard order.
``threads``
    A :class:`~concurrent.futures.ThreadPoolExecutor` of ``num_shards``
    workers; NumPy's GIL release inside large ufunc loops overlaps shard
    arithmetic on multi-core machines.

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

from repro.exec.base import TileExecutor, map_shards, run_shards, shard_items
from repro.exec.pool import SupervisedPool

__all__ = [
    "TileExecutor",
    "map_shards",
    "run_shards",
    "shard_items",
    "SupervisedPool",
]
