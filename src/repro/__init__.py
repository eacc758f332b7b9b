"""Matrix-PIC reproduction library.

This package reproduces the system described in *Matrix-PIC: Harnessing
Matrix Outer-product for High-Performance Particle-in-Cell Simulations*
(EUROSYS '26).  It contains:

``repro.pic``
    A complete 3D electromagnetic Particle-in-Cell substrate (the role WarpX
    plays in the paper): Yee/CKC field solver, Boris pusher, CIC/TSC/QSP
    shape functions, field gather, reference deposition kernels, tiled
    Structure-of-Arrays particle storage, boundaries, laser injection and a
    moving window.

``repro.hardware``
    An instruction-level simulator of the LX2-style hybrid VPU/MPU CPU used
    in the paper, together with an analytic cost model that converts
    instruction and byte counts into modelled kernel seconds.

``repro.core``
    The paper's contribution: the rhocell accumulator, the Gapped Packed
    Memory Array (GPMA), the incremental particle sorter, the adaptive
    global resorting policy, the MPU outer-product deposition mapping and
    the hybrid VPU-MPU kernel.

``repro.baselines``
    The ablation and comparison configurations of the evaluation section
    plus an analytic model of the WarpX CUDA baseline on an A800 GPU.

``repro.workloads``
    The uniform-plasma and LWFA workloads of the paper and the Appendix-B
    particle-mesh (N-body) and PME (molecular dynamics) generalisations.

``repro.pipeline``
    The composable step-pipeline API: a :class:`~repro.pipeline.Stage`
    protocol, the :class:`~repro.pipeline.StepPipeline` stage graph with
    pre-stage/post-stage/step hooks, and the one stage list that the global,
    executor-sharded and domain-decomposed runs all step through.

``repro.api``
    The run object: :class:`~repro.api.Session` assembles a simulation,
    owns the pipeline and drives it with a stepping iterator
    (``Session.run(steps)``).

``repro.analysis``
    Metrics (throughput, speedup, percent of theoretical peak), runtime
    breakdowns, and formatters that regenerate the paper's tables/figures.
"""

from repro._version import __version__
from repro.api import Session
from repro.config import (
    ExecutionConfig,
    GridConfig,
    SimulationConfig,
    SortingPolicyConfig,
    SpeciesConfig,
)
from repro.exec import create_executor
from repro.core.framework import MatrixPICDeposition
from repro.pipeline import StepPipeline, build_pipeline

__all__ = [
    "__version__",
    "ExecutionConfig",
    "GridConfig",
    "SimulationConfig",
    "SortingPolicyConfig",
    "SpeciesConfig",
    "Session",
    "StepPipeline",
    "MatrixPICDeposition",
    "build_pipeline",
    "create_executor",
]
