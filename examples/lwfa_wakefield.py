#!/usr/bin/env python3
"""Laser-Wakefield Acceleration with the Matrix-PIC deposition framework.

Runs the down-scaled LWFA workload (Gaussian laser, moving window,
background plasma with an up-ramp) end to end with the full Matrix-PIC
framework installed, then reports:

* basic wake diagnostics (longitudinal field structure, peak accelerating
  field, energy gained by the plasma electrons),
* the sorting activity caused by the strong particle migration of this
  workload (moved particles, GPMA rebuilds, adaptive global sorts), and
* the modelled deposition speedup over the baseline kernel (Figure 9).

Run with:  python examples/lwfa_wakefield.py
(set REPRO_EXAMPLES_SMOKE=1 for the fast CI configuration)
"""

from __future__ import annotations

import os

import numpy as np

from repro.analysis.runner import sweep_configurations
from repro.analysis.tables import format_series_table, speedup_series
from repro.baselines.configs import make_strategy
from repro.workloads.lwfa import LWFAWorkload

#: CI smoke mode: same code paths, minimum useful problem size
SMOKE = bool(os.environ.get("REPRO_EXAMPLES_SMOKE"))


def wake_diagnostics(session) -> None:
    grid = session.grid
    # longitudinal electric field on the laser axis
    nx, ny, _ = grid.shape
    on_axis_ez = grid.ez[nx // 2, ny // 2, :]
    peak = float(np.max(np.abs(on_axis_ez)))
    print(f"peak |E_z| on axis:            {peak:.3e} V/m")
    print(f"laser field energy in the box: {grid.field_energy():.3e} J")
    kinetic = session.containers[0].kinetic_energy()
    print(f"electron kinetic energy:       {kinetic:.3e} J")
    print(f"particles in the window:       {session.num_particles}")
    print(f"window shifted by:             "
          f"{session.moving_window.total_shift_cells} cells")


def main() -> None:
    workload = LWFAWorkload(n_cell=(8, 8, 64), tile_size=(8, 8, 16), ppc=8,
                            max_steps=4 if SMOKE else 12)

    print("== 1. physics run with the MatrixPIC framework installed ==")
    strategy = make_strategy("MatrixPIC (FullOpt)")
    with workload.build_session(deposition=strategy) as session:
        session.run_all()
        wake_diagnostics(session)
    print(f"adaptive global sorts performed: {strategy.global_sorts_performed}")

    print("\n== 2. Figure 9: deposition kernel time, baseline vs MatrixPIC ==")
    kernel_time = {}
    for ppc in (1, 8) if SMOKE else (1, 8, 64):
        sweep = sweep_configurations(
            LWFAWorkload(n_cell=(8, 8, 32), tile_size=(8, 8, 16), ppc=ppc,
                         max_steps=2),
            ("Baseline", "MatrixPIC (FullOpt)"), steps=2, scramble=False)
        kernel_time[ppc] = {n: r.timing.total for n, r in sweep.items()}
    print(format_series_table(kernel_time, "modelled kernel seconds"))
    speedups = speedup_series(kernel_time, "Baseline", "MatrixPIC (FullOpt)")
    print("speedups:", {k: round(v, 2) for k, v in sorted(speedups.items())})
    print("\nExpected shape (paper §6.1): below ~8 PPC the baseline wins; the")
    print("dense wake regions favour MatrixPIC and the advantage grows with PPC.")


if __name__ == "__main__":
    main()
