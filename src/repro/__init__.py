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
    The LX2-style hybrid VPU/MPU CPU used in the paper as architecture
    parameters and per-phase instruction counters, together with an
    analytic cost model that converts instruction and byte counts into
    modelled kernel seconds.

``repro.core``
    The paper's contribution: the rhocell accumulator, the Gapped Packed
    Memory Array (GPMA), the incremental particle sorter, the adaptive
    global resorting policy (fixed at the paper's Appendix-A values), the
    MPU outer-product deposition as stacked block products and the hybrid
    VPU-MPU kernel.

``repro.baselines``
    The ablation and comparison configurations of the evaluation section.

``repro.workloads``
    The uniform-plasma and LWFA workloads of the paper.

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
    Metrics (throughput, speedup), the experiment runners, the campaign
    layer with its result cache, and a fixed-width table formatter.  The
    paper's numbers are held against the model in one test ledger,
    ``tests/test_paper_ledger.py``.
"""

from repro._version import __version__
from repro.api import Session
from repro.config import (
    ExecutionConfig,
    GridConfig,
    SimulationConfig,
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
    "SpeciesConfig",
    "Session",
    "StepPipeline",
    "MatrixPICDeposition",
    "build_pipeline",
    "create_executor",
]
