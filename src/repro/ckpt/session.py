"""Full-state capture and bitwise-exact restore of a
:class:`~repro.api.Session`.

The resume contract mirrors the domain-parity contract: for any
(backend, kernel tier, shard count, domain split), a run of ``N`` steps
is bitwise identical — fields, currents, particles, energy history — to
a run of ``k`` steps + :func:`save_simulation` + :func:`restore_simulation`
into a fresh session + ``N - k`` more steps.

What a snapshot holds
---------------------
* the 10 dense field components plus the grid origin (``lo``/``hi``
  travel with the moving window),
* every particle container: the SoA arrays of all tiles concatenated in
  tile order plus per-tile counts (concatenate-then-split round-trips
  exactly), ids, and the id allocator cursor,
* step index, moving-window accumulator and total shift count,
* both RNG streams (the construction-time generator and the moving
  window's refill stream) as exact bit-generator states,
* the energy history and the per-phase deposition counters,
* a config fingerprint — restoring into a session built from a
  different configuration raises :class:`SnapshotMismatchError` instead
  of silently producing garbage.

The frame grid is the array of record for every run, so a
domain-decomposed run needs no serialization format of its own and its
snapshot is identical across domain splits of the same run.

Restore mutates arrays **in place** — the solver stencils hold
references to the grid arrays, so rebinding them would silently fork the
state.
"""

from __future__ import annotations

import dataclasses
import os
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

import numpy as np

from repro.analysis.cache import content_key
from repro.ckpt.format import (
    SnapshotMismatchError,
    read_snapshot,
    write_snapshot,
)
from repro.hardware.counters import KernelCounters, PhaseCounters
from repro.pic.particles import _SOA_FIELDS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import Session

__all__ = [
    "STATE_VERSION",
    "capture_state",
    "config_fingerprint",
    "restore_simulation",
    "restore_state",
    "save_simulation",
]

#: logical state-inventory version (the container version lives in
#: :mod:`repro.ckpt.format`)
STATE_VERSION = 1


#: config fields excluded from the restore fingerprint: the executor
#: backend, kernel tier and domain split are axes the parity contract
#: pins to bitwise-identical results, so a snapshot is portable across
#: them; ``max_steps`` is a loop bound, not physics — resuming with a
#: larger total is the whole point; ``observe`` is telemetry — a traced
#: run is bitwise identical to an untraced one, so snapshots are
#: portable across observability settings.  The *shard count* stays in:
#: it fixes the deposition merge order, so results are only pinned for
#: the same ``num_shards`` (see the contract in :mod:`repro.exec.base`).
_FINGERPRINT_EXCLUDE = ("max_steps", "domain", "backend", "observe")


def config_fingerprint(config: Any) -> str:
    """Content hash of the physics-defining part of a config.

    Two configurations with the same fingerprint evolve identical state
    step for step; restoring across a fingerprint mismatch would
    silently produce garbage and raises instead.
    """
    payload = dataclasses.asdict(config)
    for field_name in _FINGERPRINT_EXCLUDE:
        payload.pop(field_name, None)
    execution = payload.get("execution")
    if isinstance(execution, dict):
        execution.pop("backend", None)  # num_shards stays
    return content_key(payload)


#: snapshot key of the moving window's refill stream (named for the
#: callback that once owned it, so older snapshots still restore)
_WINDOW_RNG = "injector"


def capture_state(simulation: "Session"
                  ) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Snapshot ``simulation`` into a ``(meta, arrays)`` pair."""
    grid = simulation.grid
    arrays: Dict[str, np.ndarray] = {
        f"grid.{name}": array for name, array in grid.field_arrays().items()
    }
    arrays["grid.lo"] = grid.lo
    arrays["grid.hi"] = grid.hi
    window = simulation.moving_window
    arrays["window.accumulated"] = np.array([window._accumulated],
                                            dtype=np.float64)
    containers_meta: List[Dict[str, Any]] = []
    for index, container in enumerate(simulation.containers):
        tiles = container.tiles
        prefix = f"c{index}"
        for name in _SOA_FIELDS:
            arrays[f"{prefix}.{name}"] = np.concatenate(
                [getattr(tile, name) for tile in tiles])
        arrays[f"{prefix}.ids"] = np.concatenate(
            [tile.ids for tile in tiles])
        arrays[f"{prefix}.counts"] = np.array(
            [tile.num_particles for tile in tiles], dtype=np.int64)
        containers_meta.append({
            "next_id": container._next_id,
            "num_tiles": len(tiles),
        })
    meta: Dict[str, Any] = {
        "state_version": STATE_VERSION,
        "config_fingerprint": config_fingerprint(simulation.config),
        "step_index": simulation.step_index,
        "window_total_shift_cells": window.total_shift_cells,
        "rng": {
            "simulation": simulation.rng.bit_generator.state,
            _WINDOW_RNG: window.rng.bit_generator.state,
        },
        "energy_history": [
            [record.step, record.field_energy, record.kinetic_energy]
            for record in simulation.energy.history
        ],
        "containers": containers_meta,
        "counters": {
            phase: counters.as_dict()
            for phase, counters in
            simulation.deposition_counters.phases.items()
        },
    }
    return meta, arrays


def restore_state(simulation: "Session", meta: Dict[str, Any],
                  arrays: Dict[str, np.ndarray]) -> None:
    """Load a captured ``(meta, arrays)`` pair into ``simulation``.

    The target must have been built from the same configuration
    (fingerprint-checked); all grid arrays are written in place.
    """
    version = meta.get("state_version")
    if version != STATE_VERSION:
        raise SnapshotMismatchError(
            f"snapshot state version {version!r} is not supported "
            f"(this build restores version {STATE_VERSION})")
    fingerprint = config_fingerprint(simulation.config)
    if meta.get("config_fingerprint") != fingerprint:
        raise SnapshotMismatchError(
            "snapshot was taken from a different simulation "
            "configuration; rebuild the session from the original "
            "workload before restoring")
    grid = simulation.grid
    for name, array in grid.field_arrays().items():
        loaded = arrays[f"grid.{name}"]
        if loaded.shape != array.shape:
            raise SnapshotMismatchError(
                f"snapshot field {name!r} has shape {loaded.shape}, "
                f"grid expects {array.shape}")
        array[...] = loaded
    grid.lo[...] = arrays["grid.lo"]
    grid.hi[...] = arrays["grid.hi"]

    window = simulation.moving_window
    window._accumulated = float(arrays["window.accumulated"][0])
    window.total_shift_cells = int(meta["window_total_shift_cells"])

    containers_meta = meta["containers"]
    if len(containers_meta) != len(simulation.containers):
        raise SnapshotMismatchError(
            f"snapshot holds {len(containers_meta)} particle "
            f"container(s), simulation has {len(simulation.containers)}")
    for index, (container, cmeta) in enumerate(
            zip(simulation.containers, containers_meta)):
        prefix = f"c{index}"
        tiles = container.tiles
        if cmeta["num_tiles"] != len(tiles):
            raise SnapshotMismatchError(
                f"snapshot container {index} has {cmeta['num_tiles']} "
                f"tiles, simulation has {len(tiles)}")
        counts = arrays[f"{prefix}.counts"]
        offsets = np.zeros(len(tiles) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        for name in (*_SOA_FIELDS, "ids"):
            flat = arrays[f"{prefix}.{name}"]
            if flat.shape[0] != offsets[-1]:
                raise SnapshotMismatchError(
                    f"snapshot container {index} field {name!r} length "
                    "does not match the per-tile counts")
            for tile_id, tile in enumerate(tiles):
                chunk = flat[offsets[tile_id]:offsets[tile_id + 1]].copy()
                if name == "ids":
                    tile.ids = chunk
                else:
                    setattr(tile, name, chunk)
        for tile in tiles:
            tile.sorter = None  # any attached GPMA predates the snapshot
        container._next_id = int(cmeta["next_id"])

    rng_meta = meta.get("rng", {})
    if rng_meta.get("simulation") is not None:
        simulation.rng.bit_generator.state = rng_meta["simulation"]
    if rng_meta.get(_WINDOW_RNG) is not None:
        window.rng.bit_generator.state = rng_meta[_WINDOW_RNG]

    history = [(int(step), float(fe), float(ke))
               for step, fe, ke in meta.get("energy_history", [])]
    from repro.pic.diagnostics import EnergyRecord

    simulation.energy.history = [
        EnergyRecord(step=step, field_energy=fe, kinetic_energy=ke)
        for step, fe, ke in history
    ]
    simulation.deposition_counters = KernelCounters(phases={
        phase: PhaseCounters(**values)
        for phase, values in meta.get("counters", {}).items()
    })
    simulation.step_index = int(meta["step_index"])
    # the restored history already holds the record for the current step
    # iff the snapshot was taken after a recording run's epilogue; a
    # periodic-hook snapshot fires before it, so the resumed run must
    # record the current step itself
    simulation._skip_initial_energy_record = bool(
        history and history[-1][0] >= simulation.step_index)


def save_simulation(simulation: "Session", path: str) -> str:
    """Capture ``simulation`` and write it to ``path`` atomically."""
    handle = simulation.telemetry
    with handle.span("ckpt.save", cat="ckpt"):
        meta, arrays = capture_state(simulation)
        written = write_snapshot(path, meta, arrays)
    handle.count("ckpt.saves")
    try:
        handle.count("ckpt.bytes", os.path.getsize(written))
    except OSError:  # pragma: no cover - raced removal
        pass
    return written


def restore_simulation(simulation: "Session", path: str) -> None:
    """Read, verify and load the snapshot at ``path`` into ``simulation``."""
    handle = simulation.telemetry
    with handle.span("ckpt.restore", cat="ckpt"):
        meta, arrays = read_snapshot(path)
        restore_state(simulation, meta, arrays)
    handle.count("ckpt.restores")
