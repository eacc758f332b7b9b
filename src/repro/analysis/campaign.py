"""Experiment campaigns: one grid schema, caching, parallelism.

A :class:`Campaign` turns the paper's artifact generation from a pile of
serial scripts into a small serving layer:

* an experiment is described by a grid request — a mapping over
  :data:`REQUEST_KEYS` (workload family, PPC scan, configurations,
  steps, seed, shape order, ...; missing keys take
  :data:`repro.workloads.GRID_DEFAULTS`) — and :func:`expand_request`,
  the one place specs are built, expands it into
  :class:`ExperimentSpec` cells; ``python -m repro campaign`` builds the
  mapping from its flags and a ``repro.serve`` submission is one, so
  both accept the same grids and hash them to the same keys,
* each spec is a pure, picklable description of one experiment; running
  it builds a fully isolated :class:`repro.api.Session` (and therefore
  the :mod:`repro.pipeline` stage list), so results are identical whether
  a spec runs serially, in a worker process or is replayed from cache,
* specs hash to content keys (workload parameters, configuration name,
  steps, seed, library version, a digest of the package sources) that
  index the on-disk :class:`~repro.analysis.cache.ResultCache`,
* cache misses execute concurrently over a supervised process pool
  (:class:`repro.exec.pool.SupervisedPool`), degrading to in-process
  serial execution where the sandbox forbids subprocesses,
* the cache is also the campaign's one durable per-cell record: each
  cell is stored the moment its payload exists, so a killed sweep re-run
  on the same cache adopts its completed cells and computes the rest.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro._version import __version__
from repro.analysis.cache import (
    CACHE_SCHEMA_VERSION,
    CacheStats,
    ResultCache,
    canonical_json,
    content_key,
)
from repro.analysis.metrics import ExperimentResult
from repro.analysis.runner import run_spec
from repro.exec.pool import SupervisedPool
from repro.obs.registry import NULL_TELEMETRY, Telemetry


# ----------------------------------------------------------------------
# Workload families: spec <-> builder object
# ----------------------------------------------------------------------

def build_workload(kind: str, params: Mapping):
    """Rebuild a workload builder from its kind and parameter dict.

    ``kind`` names a family of :data:`repro.workloads.FAMILIES` (imported
    here: the workload modules import the simulation stack, so a
    top-level import would be circular).
    """
    from repro.workloads import FAMILIES

    if kind not in FAMILIES:
        raise ValueError(
            f"unknown workload kind {kind!r}; expected one of "
            f"{sorted(FAMILIES)}"
        )
    kwargs = dict(params)
    # nested config dataclasses arrive as plain dicts after a JSON round
    # trip; rebuild them from the declared field types
    from repro.config import ExecutionConfig
    from repro.obs import ObsConfig

    nested = {"execution": ExecutionConfig, "observe": ObsConfig}
    for name, config_cls in nested.items():
        value = kwargs.get(name)
        if isinstance(value, Mapping):
            kwargs[name] = config_cls(**value)
    return FAMILIES[kind]["builder"](**kwargs)


# ----------------------------------------------------------------------
# Source fingerprint
# ----------------------------------------------------------------------

_SOURCE_FINGERPRINT: Optional[str] = None


def source_fingerprint() -> str:
    """Digest of the installed ``repro`` package sources.

    Folded into every cache key so that editing any library source —
    kernels, cost model, runners — invalidates previously cached results
    without requiring a version bump.  Computed once per process (~60
    small files); worker processes never compute keys.
    """
    global _SOURCE_FINGERPRINT
    if _SOURCE_FINGERPRINT is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode("utf-8"))
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        _SOURCE_FINGERPRINT = digest.hexdigest()
    return _SOURCE_FINGERPRINT


# ----------------------------------------------------------------------
# Experiment specs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """Pure description of one (workload x configuration) experiment.

    A spec carries only JSON-able data, so it pickles cheaply to worker
    processes and hashes to a stable cache key.  ``workload_params``
    includes the workload's ``seed`` and ``shape_order``.  The sorting
    policy and the cost model are the library's (their defaults are
    ``src/`` constants, so :func:`source_fingerprint` covers them).
    """

    workload_kind: str
    workload_params: Mapping
    configuration: str
    steps: int
    warmup_steps: int = 1
    scramble: bool = True

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (used for pickling, hashing and cache files)."""
        return {
            "workload_kind": self.workload_kind,
            "workload_params": dict(self.workload_params),
            "configuration": self.configuration,
            "steps": self.steps,
            "warmup_steps": self.warmup_steps,
            "scramble": self.scramble,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExperimentSpec":
        return cls(
            workload_kind=str(payload["workload_kind"]),
            workload_params=dict(payload["workload_params"]),
            configuration=str(payload["configuration"]),
            steps=int(payload["steps"]),
            warmup_steps=int(payload.get("warmup_steps", 1)),
            scramble=bool(payload.get("scramble", True)),
        )

    def cache_key(self) -> str:
        """Content hash identifying this experiment's result.

        Any change to a configuration, step count, workload parameter or
        seed produces a different key.  The library version and a digest
        of the package sources are part of the payload: neither a new
        release nor an in-place source edit ever replays results computed
        by older code.
        """
        payload = self.to_dict()
        params = dict(payload["workload_params"])
        # observability is inert to results (a traced run is bitwise
        # identical to an untraced one), so it never splits cache keys
        params.pop("observe", None)
        payload["workload_params"] = params
        payload["library_version"] = __version__
        payload["source_fingerprint"] = source_fingerprint()
        payload["cache_schema"] = CACHE_SCHEMA_VERSION
        return content_key(payload)

    # ------------------------------------------------------------------
    def build_workload(self):
        """Reconstruct the workload builder described by this spec."""
        return build_workload(self.workload_kind, self.workload_params)

    def label(self) -> str:
        """Short human-readable identity for tables and logs."""
        ppc = self.workload_params.get("ppc", "?")
        return f"{self.workload_kind}/ppc={ppc}"


# ----------------------------------------------------------------------
# Grid expansion (a grid mapping -> ExperimentSpec cells)
# ----------------------------------------------------------------------

#: every key a grid may carry; anything else is an error (typos in a grid
#: silently expanding to the default would poison cache parity)
REQUEST_KEYS = frozenset({
    "tenant", "workload", "ppc", "configurations", "steps",
    "warmup_steps", "seed", "scramble", "shape_order", "n_cell",
    "tile_size", "domains",
})


def _int_value(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{key} must be >= 0, got {value}")
    return value


def expand_request(request: Mapping, *, observe=None,
                   execution=None) -> List[ExperimentSpec]:
    """The one grid expansion: a grid mapping -> its cells' specs.

    The only place specs are built.  ``python -m repro campaign`` and
    ``run`` (a one-cell grid) build the mapping from their flags and a
    ``repro.serve`` submission is one, so they accept the same grids
    and hash them to the same cache keys.  Missing keys take
    :data:`repro.workloads.GRID_DEFAULTS`; workloads nest outer,
    configurations inner; ``observe`` (inert to keys) and ``execution``
    (the executor ``run`` asks for) go to every cell beside the grid.
    Raises :class:`ValueError` for anything malformed: an unknown key or
    configuration, a PPC outside the paper's scan, a shape order the
    lwfa workload or a configuration's kernel does not take, a
    decomposition the tile lattice cannot split.
    """
    from repro.baselines.configs import (
        available_configurations,
        configuration_kernel,
    )
    from repro.workloads import (GRID_DEFAULTS, positive_ints,
                                 workload_for_family)

    if not isinstance(request, Mapping):
        raise ValueError(
            f"submission must be a JSON object, got {type(request).__name__}")
    unknown = sorted(set(request) - REQUEST_KEYS)
    if unknown:
        raise ValueError(
            f"unknown submission key(s) {unknown}; "
            f"valid keys: {sorted(REQUEST_KEYS)}")
    grid = {**GRID_DEFAULTS, **request}

    configurations = grid["configurations"]
    if not isinstance(configurations, (list, tuple)) or not configurations:
        raise ValueError(
            "configurations must be a non-empty list of configuration "
            f"names, got {configurations!r}")
    bad = [name for name in configurations
           if name not in available_configurations()]
    if bad:
        raise ValueError(
            f"unknown configuration(s) {bad}; "
            f"valid names: {list(available_configurations())}")

    ppc_scan = grid["ppc"]
    if isinstance(ppc_scan, int) and not isinstance(ppc_scan, bool):
        ppc_scan = [ppc_scan]
    ppc_scan = positive_ints("ppc", ppc_scan)
    steps, warmup_steps, seed = (_int_value(key, grid[key])
                                 for key in ("steps", "warmup_steps", "seed"))
    scramble = grid.get("scramble", True)
    if not isinstance(scramble, bool):
        raise ValueError(f"scramble must be a boolean, got {scramble!r}")

    workloads = [
        workload_for_family(
            grid["workload"], ppc=ppc, max_steps=steps, seed=seed,
            domains=grid.get("domains"), n_cell=grid.get("n_cell"),
            tile_size=grid.get("tile_size"),
            shape_order=grid.get("shape_order"), observe=observe,
            execution=execution)
        for ppc in ppc_scan
    ]
    order = workloads[0].build_config().shape_order
    for name in configurations:
        configuration_kernel(name).check_order(order)
    return [
        ExperimentSpec(workload_kind=grid["workload"],
                       workload_params=dataclasses.asdict(workload),
                       configuration=configuration, steps=steps,
                       warmup_steps=warmup_steps, scramble=scramble)
        for workload in workloads
        for configuration in configurations
    ]


# ----------------------------------------------------------------------
# Spec execution (shared by the serial path and the worker processes)
# ----------------------------------------------------------------------

def _execute_spec_payload(spec_payload: Mapping) -> Dict[str, object]:
    """Worker entry point: run a spec dict, return the result as JSON data.

    Returning plain JSON data (rather than the result object) keeps the
    parallel path on exactly the same serialisation the cache uses, so a
    fresh parallel result and a cached replay are interchangeable.
    ``Campaign`` and the ``repro.serve`` worker pool both look this name
    up on the module at call time, so fault-injection harnesses can
    substitute it (``tests/faults.py::killing_spec_executor``).
    """
    result = run_spec(ExperimentSpec.from_dict(spec_payload))
    return result.to_json()


# ----------------------------------------------------------------------
# Campaign
# ----------------------------------------------------------------------

@dataclass
class CampaignEntry:
    """One executed spec together with its provenance."""

    spec: ExperimentSpec
    result: ExperimentResult
    cache_hit: bool = False
    cache_key: Optional[str] = None

    def to_json(self) -> Dict[str, object]:
        return {
            "spec": self.spec.to_dict(),
            "cache_hit": self.cache_hit,
            "cache_key": self.cache_key,
            "result": self.result.to_json(),
        }


@dataclass
class CampaignResult:
    """Outcome of :meth:`Campaign.run`, in spec order."""

    entries: List[CampaignEntry]
    cache_stats: Optional[CacheStats] = None
    jobs: int = 1
    #: True when the process pool was unavailable and misses ran inline
    degraded: bool = False

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def aggregated_metrics(self) -> Dict[str, float]:
        """Per-cell telemetry counters summed across every entry.

        Cells report the deterministic counter snapshot of their own run
        (``ExperimentResult.metrics``); summing them gives the campaign
        totals — particles pushed, tiles deposited, migrations — whatever
        mix of serial, pooled and cache-replayed execution produced the
        entries.  Empty when the cells ran without observability.
        """
        totals: Dict[str, float] = {}
        for entry in self.entries:
            for name, value in entry.result.metrics.items():
                totals[name] = totals.get(name, 0.0) + value
        return {name: totals[name] for name in sorted(totals)}

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "results": [entry.to_json() for entry in self.entries],
            "jobs": self.jobs,
            "degraded": self.degraded,
            "library_version": __version__,
        }
        if self.cache_stats is not None:
            payload["cache"] = self.cache_stats.as_dict()
        metrics = self.aggregated_metrics()
        if metrics:
            payload["metrics"] = metrics
        return payload


class Campaign:
    """Runs a list of experiment specs through the cache and a worker pool.

    Parameters
    ----------
    specs:
        The experiments, in the order results should be reported.
    cache:
        Optional :class:`ResultCache`; None disables caching entirely.
        Every computed cell is stored as soon as it completes, so a
        killed campaign re-run on the same cache replays the cells it
        finished (a torn or corrupt entry is a miss and is recomputed);
        without a cache nothing is kept.
    jobs:
        Worker processes used for cache misses.  ``jobs=1`` runs misses
        serially in-process; higher values use a fork-based
        ``ProcessPoolExecutor`` and degrade to serial execution where the
        environment forbids subprocesses.
    obs:
        The registry the campaign's own accounting lands in
        (``campaign.*``, the ``campaign`` span, pool notices).  Cells
        record into their own per-run registries and report through
        ``ExperimentResult.metrics``.
    """

    def __init__(self, specs: Sequence[ExperimentSpec], *,
                 cache: Optional[ResultCache] = None,
                 jobs: int = 1,
                 obs: Telemetry = NULL_TELEMETRY):
        if jobs <= 0:
            raise ValueError(f"jobs must be positive, got {jobs}")
        self.specs = list(specs)
        self.cache = cache
        self.jobs = int(jobs)
        self.obs = obs
        #: supervises the worker processes of every ``run`` (lazy: a
        #: ``jobs=1`` or fully cached campaign never forks)
        self.pool = SupervisedPool(self.jobs, owner="campaign", obs=obs)
        #: True when some cell of the last ``run`` wanted the pool but
        #: ran in-process instead
        self.degraded = False

    # ------------------------------------------------------------------
    def run(self) -> CampaignResult:
        """Execute every spec, consulting the cache first."""
        self.obs.count("campaign.cells", len(self.specs))
        with self.obs.span("campaign", cat="campaign",
                           args={"cells": len(self.specs),
                                 "jobs": self.jobs}):
            return self._run()

    def _run(self) -> CampaignResult:
        obs = self.obs
        stats_before = (dataclasses.replace(self.cache.stats)
                        if self.cache is not None else None)
        entries: List[Optional[CampaignEntry]] = [None] * len(self.specs)
        pending: List[Tuple[int, ExperimentSpec, Optional[str]]] = []

        for index, spec in enumerate(self.specs):
            # the entry's cache_key stays None when caching is off so
            # provenance reads true
            key = spec.cache_key() if self.cache is not None else None
            payload = self.cache.get(key) if key is not None else None
            if payload is not None:
                try:
                    result = ExperimentResult.from_json(payload["result"])
                except (KeyError, TypeError, ValueError, AttributeError):
                    # malformed payload that still parsed as JSON: treat
                    # like any other corrupt entry and recompute
                    self.cache.reclassify_corrupt_hit(key)
                else:
                    obs.count("campaign.cache.hits")
                    entries[index] = CampaignEntry(
                        spec=spec, result=result,
                        cache_hit=True, cache_key=key)
                    continue
            if self.cache is not None:
                obs.count("campaign.cache.misses")
            pending.append((index, spec, key))

        # a grid that accidentally repeats a cell (duplicate PPC value,
        # repeated configuration name) computes each unique spec once and
        # fans the result out to every position
        unique: Dict[str, List[Tuple[int, ExperimentSpec, Optional[str]]]] = {}
        for item in pending:
            _index, spec, key = item
            identity = key if key is not None else canonical_json(
                spec.to_dict())
            unique.setdefault(identity, []).append(item)
        unique_items = list(unique.values())

        def store(position: int, payload: Dict[str, object]) -> None:
            # called as soon as each miss's payload materializes, so a
            # crash later in the batch never discards completed work
            _index, spec, key = unique_items[position][0]
            if key is not None:
                self.cache.put(key, spec.to_dict(), payload)

        executed = self._execute(
            [items[0][1] for items in unique_items], on_result=store)
        for items, payload in zip(unique_items, executed):
            for index, spec, key in items:
                entries[index] = CampaignEntry(
                    spec=spec, result=ExperimentResult.from_json(payload),
                    cache_hit=False, cache_key=key)

        return CampaignResult(
            entries=[e for e in entries if e is not None],
            cache_stats=(self._stats_since(stats_before)
                         if self.cache is not None else None),
            jobs=self.jobs,
            degraded=self.degraded,
        )

    def _stats_since(self, before: CacheStats) -> CacheStats:
        """This run's cache accounting: the delta against ``before``.

        A detached snapshot, so later campaigns sharing the same
        ResultCache never retroactively change this result's numbers.
        """
        now = self.cache.stats
        return CacheStats(
            hits=now.hits - before.hits,
            misses=now.misses - before.misses,
            invalidations=now.invalidations - before.invalidations,
            writes=now.writes - before.writes,
            write_errors=now.write_errors - before.write_errors,
            evictions=now.evictions - before.evictions,
            evicted_bytes=now.evicted_bytes - before.evicted_bytes,
        )

    # ------------------------------------------------------------------
    def _execute(self, specs: Sequence[ExperimentSpec],
                 on_result=None) -> List[Dict[str, object]]:
        """Run cache misses, in parallel when possible, in spec order.

        ``on_result(position, payload)`` fires as soon as each spec's
        payload is available — before the whole batch finishes — so the
        caller can persist completed work even when a later spec raises.
        Worker death and unavailable pools are the
        :class:`~repro.exec.pool.SupervisedPool`'s business: the cells it
        could not finish run serially in-process, once.
        """
        tasks = [functools.partial(_execute_spec_payload, spec.to_dict())
                 for spec in specs]
        off_pool_before = self.pool.off_pool_tasks
        try:
            return self.pool.run(tasks, on_result)
        finally:
            # per-run: a pool failure in an earlier run on this instance
            # does not mark a later (possibly all-cached) run
            self.degraded = self.pool.off_pool_tasks > off_pool_before
            # no worker outlives the run
            self.pool.shutdown()
