"""Declarative experiment campaigns: grid expansion, caching, parallelism.

A :class:`Campaign` turns the paper's artifact generation from a pile of
serial scripts into a small serving layer:

* a declarative grid — workloads x configurations (x sorting policy,
  cost model, steps, ...) — expands into :class:`ExperimentSpec` values,
* each spec is a pure, picklable description of one experiment; running
  it builds a fully isolated :class:`repro.api.Session` (and therefore
  the :mod:`repro.pipeline` stage list), so results are identical whether
  a spec runs serially, in a worker process or is replayed from cache,
* specs hash to content keys (workload parameters, configuration name,
  sorting policy, cost-model parameters, steps, seed, library version)
  that index the on-disk :class:`~repro.analysis.cache.ResultCache`,
* cache misses execute concurrently over a supervised process pool
  (:class:`repro.exec.pool.SupervisedPool`), degrading to in-process
  serial execution where the sandbox forbids subprocesses.

``sweep_configurations`` in :mod:`repro.analysis.runner` and every
table/figure benchmark route through this module, so a repeated benchmark
invocation is a pure cache hit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro._version import __version__
from repro.analysis.cache import (
    CACHE_SCHEMA_VERSION,
    CacheStats,
    ResultCache,
    canonical_json,
    content_key,
)
from repro.analysis.metrics import ExperimentResult
from repro.config import SortingPolicyConfig
from repro.exec.base import TileTask
from repro.exec.pool import SupervisedPool
from repro.hardware.cost_model import CostModel
from repro.hardware.spec import ArchSpec
from repro.obs.log import log_event
from repro.obs.registry import NULL_TELEMETRY, Telemetry

logger = logging.getLogger(__name__)


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
    # payloads journaled by builds whose workloads still carried an
    # (unread) sorting policy; the real one travels in the spec
    kwargs.pop("sorting", None)
    # nested config dataclasses arrive as plain dicts after a JSON round
    # trip; rebuild them from the declared field types
    from repro.backend import BackendConfig
    from repro.config import ExecutionConfig
    from repro.obs import ObsConfig

    nested = {"execution": ExecutionConfig, "backend": BackendConfig,
              "observe": ObsConfig}
    for name, config_cls in nested.items():
        value = kwargs.get(name)
        if isinstance(value, Mapping):
            value = dict(value)
            if name == "backend":
                # payloads journaled by builds that still had an array
                # backend seam carry its one legal value
                legacy = value.pop("array_backend", "numpy")
                if legacy != "numpy":
                    raise ValueError(
                        f"workload_params['backend'] selects array backend "
                        f"{legacy!r}; bulk math is plain NumPy")
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
# Parameter serialisation helpers
# ----------------------------------------------------------------------

def sorting_config_to_dict(config: SortingPolicyConfig) -> Dict[str, object]:
    """JSON-able dict of a sorting policy configuration."""
    return dataclasses.asdict(config)


def cost_model_to_dict(cost_model: CostModel) -> Dict[str, object]:
    """JSON-able dict of the cost-model parameters (arch spec + cores)."""
    return {
        "spec": dataclasses.asdict(cost_model.spec),
        "parallel_cores": cost_model.parallel_cores,
    }


def cost_model_from_dict(payload: Mapping) -> CostModel:
    """Rebuild a :class:`CostModel` from :func:`cost_model_to_dict`."""
    return CostModel(spec=ArchSpec(**payload["spec"]),
                     parallel_cores=int(payload["parallel_cores"]))


# ----------------------------------------------------------------------
# Experiment specs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """Pure description of one (workload x configuration) experiment.

    A spec carries only JSON-able data, so it pickles cheaply to worker
    processes and hashes to a stable cache key.  ``workload_params``
    includes the workload's ``seed`` and ``shape_order``; ``sorting`` and
    ``cost_model`` are None for the library defaults (which are
    normalised into the key, see :meth:`cache_key`).
    """

    workload_kind: str
    workload_params: Mapping
    configuration: str
    steps: Optional[int] = None
    warmup_steps: int = 1
    scramble: bool = True
    sorting: Optional[Mapping] = None
    cost_model: Optional[Mapping] = None

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (used for pickling, hashing and cache files)."""
        return {
            "workload_kind": self.workload_kind,
            "workload_params": dict(self.workload_params),
            "configuration": self.configuration,
            "steps": self.steps,
            "warmup_steps": self.warmup_steps,
            "scramble": self.scramble,
            "sorting": dict(self.sorting) if self.sorting is not None else None,
            "cost_model": (dict(self.cost_model)
                           if self.cost_model is not None else None),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExperimentSpec":
        return cls(
            workload_kind=str(payload["workload_kind"]),
            workload_params=dict(payload["workload_params"]),
            configuration=str(payload["configuration"]),
            steps=(None if payload.get("steps") is None
                   else int(payload["steps"])),
            warmup_steps=int(payload.get("warmup_steps", 1)),
            scramble=bool(payload.get("scramble", True)),
            sorting=(dict(payload["sorting"])
                     if payload.get("sorting") is not None else None),
            cost_model=(dict(payload["cost_model"])
                        if payload.get("cost_model") is not None else None),
        )

    def cache_key(self) -> str:
        """Content hash identifying this experiment's result.

        Defaulted fields are expanded to their concrete values before
        hashing, so ``sorting=None`` and an explicitly passed default
        ``SortingPolicyConfig()`` share one key — and *any* change to a
        cost-model parameter, sorting knob, step count or seed produces a
        different key.  The library version and a digest of the package
        sources are part of the payload: neither a new release nor an
        in-place source edit ever replays results computed by older code.

        The kernel tier is normalised to its **numerics tag**: tiers that
        are bitwise identical (the oracle and fused tiers share
        ``"flat-index-v1"``) map to the same key, so a result computed on
        either replays for both — while any future tier with different
        numerics gets distinct cache entries.  A tier that cannot run
        here has no key: :func:`repro.backend.activate` raises.
        """
        from repro.backend import BackendConfig, activate

        payload = self.to_dict()
        params = dict(payload["workload_params"])
        if payload["steps"] is not None:
            # the workload's max_steps only serves as the default run
            # length; with an explicit step count it is inert, so drop it
            # from the key (CLI and programmatic sweeps of the same
            # experiment then share cache entries)
            params.pop("max_steps", None)
        # observability is inert to results (a traced run is bitwise
        # identical to an untraced one), so it never splits cache keys
        params.pop("observe", None)
        backend = params.pop("backend", None)
        if isinstance(backend, BackendConfig):
            backend = dataclasses.asdict(backend)
        backend = dict(backend) if backend is not None else {}
        params["backend"] = {
            "kernel_numerics": activate(
                backend.get("kernel_tier", "auto")).numerics,
        }
        payload["workload_params"] = params
        if payload["sorting"] is None:
            payload["sorting"] = sorting_config_to_dict(SortingPolicyConfig())
        if payload["cost_model"] is None:
            payload["cost_model"] = cost_model_to_dict(CostModel())
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


def spec_for_workload(workload, configuration: str, *,
                      steps: Optional[int] = None,
                      warmup_steps: int = 1,
                      scramble: bool = True,
                      sorting_config: Optional[SortingPolicyConfig] = None,
                      cost_model: Optional[CostModel] = None
                      ) -> ExperimentSpec:
    """Build the spec describing ``run_deposition_experiment`` on a workload.

    Raises :class:`TypeError` when the workload is not a builder of one
    of the families in :data:`repro.workloads.FAMILIES`.
    """
    from repro.workloads import FAMILIES

    kind = next((name for name, family in FAMILIES.items()
                 if type(workload) is family["builder"]), None)
    if kind is None:
        raise TypeError(
            f"workload type {type(workload).__name__} is not one of the "
            f"campaign's workload families {sorted(FAMILIES)}"
        )
    return ExperimentSpec(
        workload_kind=kind,
        workload_params=dataclasses.asdict(workload),
        configuration=configuration,
        steps=steps,
        warmup_steps=warmup_steps,
        scramble=scramble,
        sorting=(sorting_config_to_dict(sorting_config)
                 if sorting_config is not None else None),
        cost_model=(cost_model_to_dict(cost_model)
                    if cost_model is not None else None),
    )


# ----------------------------------------------------------------------
# Spec execution (shared by the serial path and the worker processes)
# ----------------------------------------------------------------------

def run_spec(spec: ExperimentSpec) -> ExperimentResult:
    """Execute one spec in-process with a fully isolated simulation."""
    from repro.analysis.runner import run_deposition_experiment

    workload = spec.build_workload()
    return run_deposition_experiment(
        workload,
        spec.configuration,
        steps=spec.steps,
        cost_model=(cost_model_from_dict(spec.cost_model)
                    if spec.cost_model is not None else None),
        sorting_config=(SortingPolicyConfig(**spec.sorting)
                        if spec.sorting is not None else None),
        scramble=spec.scramble,
        warmup_steps=spec.warmup_steps,
    )


def _execute_spec_payload(spec_payload: Mapping) -> Dict[str, object]:
    """Worker entry point: run a spec dict, return the result as JSON data.

    Returning plain JSON data (rather than the result object) keeps the
    parallel path on exactly the same serialisation the cache uses, so a
    fresh parallel result and a cached replay are interchangeable.
    ``Campaign`` and the ``repro.serve`` worker pool both look this name
    up on the module at call time, so fault-injection harnesses can
    substitute it (:func:`repro.ckpt.faults.killing_spec_executor`).
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
    #: True when the result was adopted from a campaign progress
    #: checkpoint (:mod:`repro.ckpt.progress`) instead of being executed
    resumed: bool = False

    def to_json(self) -> Dict[str, object]:
        return {
            "spec": self.spec.to_dict(),
            "cache_hit": self.cache_hit,
            "cache_key": self.cache_key,
            "resumed": self.resumed,
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

    @property
    def results(self) -> List[ExperimentResult]:
        return [entry.result for entry in self.entries]

    def by_configuration(self) -> Dict[str, ExperimentResult]:
        """Configuration name -> result (single-workload campaigns)."""
        return {e.spec.configuration: e.result for e in self.entries}

    def grouped(self) -> Dict[str, Dict[str, ExperimentResult]]:
        """Workload label -> configuration -> result.

        Labels are normally ``kind/ppc=N``; when two specs share that
        label but differ in any other field (shape order, seed, steps,
        ...), the later ones get a short content-hash suffix so no result
        is silently overwritten.
        """
        out: Dict[str, Dict[str, ExperimentResult]] = {}
        label_owner: Dict[str, str] = {}
        for entry in self.entries:
            label = entry.spec.label()
            identity = canonical_json({
                k: v for k, v in entry.spec.to_dict().items()
                if k != "configuration"
            })
            if label_owner.setdefault(label, identity) != identity:
                label = f"{label}#{content_key(identity)[:8]}"
            out.setdefault(label, {})[entry.spec.configuration] = entry.result
        return out

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
    jobs:
        Worker processes used for cache misses.  ``jobs=1`` runs misses
        serially in-process; higher values use a fork-based
        ``ProcessPoolExecutor`` and degrade to serial execution where the
        environment forbids subprocesses.
    checkpoint_dir:
        Optional directory for a campaign progress checkpoint
        (:class:`repro.ckpt.CampaignProgress`): every executed cell's
        result is durably recorded there, so a killed sweep re-run with
        ``resume=True`` adopts the completed cells and computes only the
        rest.  Independent of the result cache (works with ``--no-cache``).
    checkpoint_every:
        Rewrite the progress file every N completed cells (default 1).
    resume:
        Adopt completed cells from the latest valid progress checkpoint
        before executing.  Corrupt or torn progress files are detected
        (checksummed container) and ignored with a warning.
    obs:
        The registry the campaign's own accounting lands in
        (``campaign.*``, the ``campaign`` span, pool and progress
        notices).  Cells record into their own per-run registries and
        report through ``ExperimentResult.metrics``.
    """

    def __init__(self, specs: Sequence[ExperimentSpec], *,
                 cache: Optional[ResultCache] = None,
                 jobs: int = 1,
                 checkpoint_dir: Optional[str] = None,
                 checkpoint_every: int = 1,
                 resume: bool = False,
                 obs: Telemetry = NULL_TELEMETRY):
        if jobs <= 0:
            raise ValueError(f"jobs must be positive, got {jobs}")
        if checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {checkpoint_every}")
        if resume and checkpoint_dir is None:
            raise ValueError("resume=True requires a checkpoint_dir")
        self.specs = list(specs)
        self.cache = cache
        self.jobs = int(jobs)
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = int(checkpoint_every)
        self.resume = resume
        self.obs = obs
        #: supervises the worker processes of every ``run`` (lazy: a
        #: ``jobs=1`` or fully cached campaign never forks)
        self.pool = SupervisedPool(self.jobs, owner="campaign", obs=obs)
        #: True when some cell of the last ``run`` wanted the pool but
        #: ran in-process instead
        self.degraded = False

    # ------------------------------------------------------------------
    @classmethod
    def from_grid(cls, workloads: Iterable, configurations: Iterable[str], *,
                  steps: Optional[int] = None,
                  warmup_steps: int = 1,
                  scramble: bool = True,
                  sorting_config: Optional[SortingPolicyConfig] = None,
                  cost_model: Optional[CostModel] = None,
                  cache: Optional[ResultCache] = None,
                  jobs: int = 1,
                  checkpoint_dir: Optional[str] = None,
                  checkpoint_every: int = 1,
                  resume: bool = False,
                  obs: Telemetry = NULL_TELEMETRY) -> "Campaign":
        """Expand a workloads x configurations grid into a campaign."""
        specs = [
            spec_for_workload(workload, configuration, steps=steps,
                              warmup_steps=warmup_steps, scramble=scramble,
                              sorting_config=sorting_config,
                              cost_model=cost_model)
            for workload in workloads
            for configuration in configurations
        ]
        return cls(specs, cache=cache, jobs=jobs,
                   checkpoint_dir=checkpoint_dir,
                   checkpoint_every=checkpoint_every, resume=resume,
                   obs=obs)

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

        progress = None
        completed_prior: Dict[str, Dict[str, object]] = {}
        if self.checkpoint_dir is not None:
            from repro.ckpt.progress import CampaignProgress

            progress = CampaignProgress(self.checkpoint_dir,
                                        every=self.checkpoint_every, obs=obs)
            if self.resume:
                completed_prior = progress.load()

        for index, spec in enumerate(self.specs):
            # one content identity serves both the cache and the progress
            # checkpoint; the entry's cache_key stays None when caching
            # is off so provenance reads true
            key = (spec.cache_key()
                   if self.cache is not None or progress is not None
                   else None)
            cache_key = key if self.cache is not None else None
            payload = (self.cache.get(cache_key)
                       if self.cache is not None else None)
            if payload is not None:
                try:
                    result = ExperimentResult.from_json(payload["result"])
                except (KeyError, TypeError, ValueError, AttributeError):
                    # malformed payload that still parsed as JSON: treat
                    # like any other corrupt entry and recompute
                    self.cache.reclassify_corrupt_hit(cache_key)
                else:
                    obs.count("campaign.cache.hits")
                    entries[index] = CampaignEntry(
                        spec=spec, result=result,
                        cache_hit=True, cache_key=cache_key)
                    continue
            record = (completed_prior.get(key)
                      if key is not None else None)
            if record is not None:
                try:
                    result = ExperimentResult.from_json(record["result"])
                except (KeyError, TypeError, ValueError, AttributeError):
                    log_event(
                        "campaign.progress_malformed",
                        "ignoring malformed progress record for %s; "
                        "recomputing the cell", spec.label(),
                        logger=logger, obs=obs)
                else:
                    obs.count("campaign.resumed")
                    entries[index] = CampaignEntry(
                        spec=spec, result=result, cache_hit=False,
                        cache_key=cache_key, resumed=True)
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
            if self.cache is not None and key is not None:
                self.cache.put(key, spec.to_dict(), payload)
            if progress is not None and key is not None:
                progress.record(key, spec.to_dict(), payload)

        try:
            executed = self._execute(
                [items[0][1] for items in unique_items], on_result=store)
        finally:
            if progress is not None:
                # persist cells buffered below the checkpoint_every
                # interval even when a sibling spec raised
                progress.flush()
        for items, payload in zip(unique_items, executed):
            for index, spec, key in items:
                entries[index] = CampaignEntry(
                    spec=spec, result=ExperimentResult.from_json(payload),
                    cache_hit=False,
                    cache_key=key if self.cache is not None else None)

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
        tasks = [TileTask(_execute_spec_payload, (spec.to_dict(),))
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
