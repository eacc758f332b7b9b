"""Performance metrics used in the paper's evaluation (§5.2.2).

* **Wall time** — average execution time per step (here: modelled seconds
  from the cost model for kernel studies, and Python wall-clock for the
  stage breakdowns of Figure 1).
* **Deposition kernel time** — the complete kernel including data
  preparation, sorting and the rhocell reduction.
* **Particles per second** — ``N_particles / T_deposition``.
* **Speedup** — ``T_baseline / T_optimized``.
* **Percent of theoretical peak** — effective FLOPs of the canonical scalar
  algorithm divided by (kernel time x hardware peak).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.hardware.cost_model import KernelTiming


@dataclass
class ExperimentResult:
    """Outcome of running one configuration on one workload setting."""

    configuration: str
    ppc: int
    shape_order: int
    num_particles: int
    steps: int
    #: modelled kernel timing accumulated over all measured steps
    timing: KernelTiming
    #: Python wall-clock of the measured steps [s] (interpreter time; used
    #: only as a sanity signal, never compared against the paper)
    wall_seconds: float = 0.0
    #: wall-clock seconds per coarse stage ``bucket`` (Figure-1 style
    #: breakdown, i.e. ``RuntimeBreakdown.seconds`` — the historical
    #: field name predates the finer per-pipeline-stage
    #: ``RuntimeBreakdown.stage_seconds``, which is NOT what is stored
    #: here)
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)
    #: deterministic telemetry counters captured over the measured steps
    #: (``Telemetry.snapshot()`` — wall-clock and executor-shaped series
    #: are already excluded there); empty when observability was off
    metrics: Dict[str, float] = field(default_factory=dict)
    #: what an in-process run reports beyond this schema for ``repro run``
    #: to render (:func:`~repro.analysis.runner.run_spec`); not serialised
    live: Dict[str, object] = field(default_factory=dict, compare=False)

    @property
    def kernel_seconds(self) -> float:
        """Total modelled deposition-kernel seconds."""
        return self.timing.total

    @property
    def throughput(self) -> float:
        """Deposition throughput in particles per modelled second."""
        return particles_per_second(self.num_particles * self.steps,
                                    self.timing.total)

    def as_row(self) -> Dict[str, float]:
        """Flat dictionary for table formatting."""
        row = {
            "configuration": self.configuration,
            "ppc": self.ppc,
            "order": self.shape_order,
            "particles": self.num_particles,
            "steps": self.steps,
            "total_s": self.timing.total,
            "preprocess_s": self.timing.preprocess,
            "compute_s": self.timing.compute,
            "sort_s": self.timing.sort,
            "throughput_p_per_s": self.throughput,
        }
        row.update(self.extra)
        return row

    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        """Lossless JSON-able representation of the result.

        Every field round-trips exactly through ``json.dumps`` /
        ``json.loads`` (floats keep their IEEE-754 value), so the campaign
        cache can replay a stored result byte for byte.
        """
        return {
            "configuration": self.configuration,
            "ppc": self.ppc,
            "shape_order": self.shape_order,
            "num_particles": self.num_particles,
            "steps": self.steps,
            "timing": self.timing.to_dict(),
            "wall_seconds": self.wall_seconds,
            "stage_seconds": dict(self.stage_seconds),
            "extra": dict(self.extra),
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_json` output."""
        return cls(
            configuration=str(payload["configuration"]),
            ppc=int(payload["ppc"]),
            shape_order=int(payload["shape_order"]),
            num_particles=int(payload["num_particles"]),
            steps=int(payload["steps"]),
            timing=KernelTiming.from_dict(payload["timing"]),
            wall_seconds=float(payload.get("wall_seconds", 0.0)),
            stage_seconds={str(k): float(v) for k, v
                           in payload.get("stage_seconds", {}).items()},
            extra={str(k): float(v) for k, v
                   in payload.get("extra", {}).items()},
            metrics={str(k): float(v) for k, v
                     in payload.get("metrics", {}).items()},
        )

    def deterministic_fields(self) -> Dict[str, object]:
        """The subset of :meth:`to_json` that is identical across runs.

        ``wall_seconds`` and ``stage_seconds`` are interpreter wall-clock
        and differ between otherwise identical runs; everything else —
        the modelled timing above all, and the ``metrics`` telemetry
        counters (already filtered to their deterministic subset) — must
        match exactly whether a spec ran serially, in a worker process,
        or was replayed from cache.
        """
        payload = self.to_json()
        payload.pop("wall_seconds")
        payload.pop("stage_seconds")
        return payload


def speedup(reference_seconds: float, optimized_seconds: float) -> float:
    """Relative performance ``T_reference / T_optimized``."""
    if optimized_seconds <= 0.0:
        return float("inf")
    return reference_seconds / optimized_seconds


def particles_per_second(num_particles: int, kernel_seconds: float) -> float:
    """Deposition throughput; zero when no time was recorded."""
    if kernel_seconds <= 0.0:
        return 0.0
    return num_particles / kernel_seconds


def crossover_ppc(results_by_ppc: Dict[int, Dict[str, ExperimentResult]],
                  optimized: str, baseline: str) -> Optional[int]:
    """Lowest PPC at which ``optimized`` beats ``baseline`` (or None).

    Used by the experiment checks: the paper reports that MatrixPIC falls
    behind the baseline below roughly 8 particles per cell and wins above.
    """
    for ppc in sorted(results_by_ppc):
        rows = results_by_ppc[ppc]
        if optimized not in rows or baseline not in rows:
            continue
        if rows[optimized].kernel_seconds < rows[baseline].kernel_seconds:
            return ppc
    return None
