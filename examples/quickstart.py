#!/usr/bin/env python3
"""Quickstart: run a PIC simulation with the Matrix-PIC deposition framework.

This example builds a small uniform-plasma simulation, runs it once with
the plain WarpX-style baseline kernel and once with the full Matrix-PIC
framework (hybrid MPU kernel + incremental GPMA sorting + adaptive global
re-sorting), verifies that both produce the same deposited current, prints
the modelled LX2 kernel timings side by side, and finally shows the tile
execution engine: the same step loop run serially and sharded over a
thread pool, with bitwise-identical currents.

Run with:  python examples/quickstart.py
(set REPRO_EXAMPLES_SMOKE=1 for the fast CI configuration)
"""

from __future__ import annotations

import os

import numpy as np

from repro.analysis.runner import sweep_configurations
from repro.analysis.tables import format_kernel_table
from repro.api import Session
from repro.config import ExecutionConfig
from repro.hardware.cost_model import CostModel
from repro.pic.deposition.reference import deposit_reference
from repro.pic.diagnostics import current_residual
from repro.pic.grid import Grid
from repro.workloads.uniform import UniformPlasmaWorkload

#: CI smoke mode: same code paths, minimum useful problem size
SMOKE = bool(os.environ.get("REPRO_EXAMPLES_SMOKE"))


def main() -> None:
    # A 16^3-cell uniform plasma with 64 particles per cell (the paper's
    # mid-density point), CIC deposition, two 8^3 tiles per axis.
    workload = UniformPlasmaWorkload(n_cell=(16, 16, 16), tile_size=(8, 8, 8),
                                     ppc=8 if SMOKE else 64, shape_order=1,
                                     max_steps=2 if SMOKE else 3)

    print("== 1. correctness: every kernel reproduces the reference current ==")
    session = workload.build_session()
    workload.scramble_particles(session)
    reference = Grid(session.config.grid)
    deposit_reference(reference, session.containers[0], order=1)

    from repro.baselines.configs import make_strategy

    check = Grid(session.config.grid)
    strategy = make_strategy("MatrixPIC (FullOpt)")
    strategy.run_step(check, session.containers[0], order=1, step=0)
    residual = current_residual(check, reference)
    scale = float(np.max(np.abs(reference.jx)))
    print(f"max |J_MatrixPIC - J_reference| / max |J| = {residual / scale:.2e}\n")

    print("== 2. performance: modelled LX2 kernel time, baseline vs MatrixPIC ==")
    results = sweep_configurations(
        workload, ("Baseline", "Rhocell+IncrSort (VPU)", "MatrixPIC (FullOpt)"),
        steps=2)
    print(format_kernel_table(results))

    baseline = results["Baseline"].timing.total
    matrix = results["MatrixPIC (FullOpt)"].timing.total
    print(f"\nMatrixPIC speedup over the baseline kernel: {baseline / matrix:.2f}x")
    print(f"deposition throughput: {results['MatrixPIC (FullOpt)'].throughput:.3e} "
          "particles per modelled second")

    print("\n== 3. efficiency: percent of theoretical FP64 peak ==")
    cost_model = CostModel()
    for name, result in results.items():
        eff = 100.0 * cost_model.peak_efficiency(result.timing)
        print(f"  {name:28s} {eff:6.1f} %")

    print("\n== 4. execution engine: serial vs. tile-sharded step loop ==")
    # The same workload run through the tile executor: four contiguous tile
    # shards on a thread pool.  The determinism contract of repro.exec makes
    # the sharded run bitwise-identical to the serial run at the same shard
    # count, so parallelism is a pure deployment decision.
    runs = {}
    for backend in ("serial", "threads"):
        config = workload.build_config().with_updates(
            execution=ExecutionConfig(backend=backend, num_shards=4))
        with Session(config) as session:
            session.run_all(steps=2)
            runs[backend] = session.grid.jx.copy()
    identical = bool(np.array_equal(runs["serial"], runs["threads"]))
    print(f"threads(4 shards) current == serial(4 shards) current: {identical}")

    print("\n== 5. the run object: repro.api.Session and its step pipeline ==")
    # The session owns the composable step pipeline, exposing per-stage
    # wall time and a stepping iterator instead of an imperative loop.
    with Session.from_workload(workload) as session:
        print(f"stages: {' -> '.join(session.pipeline.stage_names())}")
        for state in session.run(steps=2, record_energy=True):
            print(f"  step {state.step}: t = {state.time:.3e} s, "
                  f"total energy = {state.energy.total:.3e} J")
        slowest = max(session.breakdown.stage_rows(),
                      key=lambda row: row["seconds"])
        print(f"slowest pipeline stage: {slowest['stage']} "
              f"({100.0 * slowest['fraction']:.1f} % of the step)")


if __name__ == "__main__":
    main()
