"""Deposition/gather scatter engine microbenchmark: ``np.add.at`` vs flat-index.

Times the historical triple-loop ``np.add.at`` formulation (kept here as
the oracle, verbatim from the pre-stencil kernels) against the flat-index
``np.bincount`` engine of :mod:`repro.pic.stencil`, per shape order and
per tile occupancy, for both directions of the stencil:

* **scatter** — three-component current deposition of one staged tile,
* **gather** — six-component field interpolation for one tile (the
  ``gather_flat_ms`` column is ``gather_fields_for_tile``, the
  cell-grouped block gather of :mod:`repro.pic.gather`).

It also times the full deposition stage once per kernel tier
(``oracle`` vs the optional numba ``fused`` tier; unavailable tiers
report ``null`` columns), runs the uniform-plasma workload end to end,
and records the wall-clock of the ``field_gather_push`` and
``current_deposition`` stages through the new engine.

The perf trajectory JSON (``BENCH_deposition_scatter.json``, override
with ``$REPRO_BENCH_OUTPUT``) is a *history*: each run appends one
record to the ``history`` list rather than overwriting earlier
environments' datapoints.  A legacy single-record file is wrapped as
the first history entry on the next append.

Run standalone:  PYTHONPATH=src python benchmarks/bench_deposition_scatter.py
Or via pytest:   python -m pytest benchmarks/bench_deposition_scatter.py -s

The CI perf-smoke job asserts the flat-index scatter beats the
``np.add.at`` oracle by >=2x on CIC deposition (the engine's weakest
case; QSP gains are far larger) and, when numba is installed, that the
fused tier beats the oracle tier by >=1.5x on CIC deposition.  The
JSON is uploaded as an artifact.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

import numpy as np

from repro.backend import KERNEL_TIERS, activate
from repro.config import GridConfig
from repro.pic.deposition.base import prepare_tile_data, scatter_tile_currents
from repro.pic.gather import gather_fields_for_tile
from repro.pic.grid import Grid
from repro.pic.shapes import shape_factors, shape_support
from repro.workloads.uniform import UniformPlasmaWorkload

#: one 8x8x8 tile, as in the kernel-study benchmarks (Table 4 scale)
BENCH_N_CELL = (8, 8, 8)
#: tile occupancies of the Figure 8 PPC scan (low / paper default)
PPC_POINTS = (8, 64)
#: shape orders: CIC, TSC, QSP
ORDERS = (1, 2, 3)
#: timing repetitions; the minimum rejects transient load
REPS = 5

#: CI gate: flat-index scatter must beat the np.add.at oracle on CIC
CIC_SCATTER_TARGET = 2.0

#: CI gate (numba leg only): fused tier must beat the oracle tier on
#: CIC deposition, the shallowest stencil and hence the weakest case
FUSED_CIC_DEPOSIT_TARGET = 1.5


# ---------------------------------------------------------------------------
# the historical np.add.at formulations (oracle, pre-stencil code verbatim)
# ---------------------------------------------------------------------------
def addat_scatter_currents(grid: Grid, data) -> None:
    """The pre-stencil ``scatter_tile_currents``: 3*S^3 np.add.at calls."""
    support = data.support
    jx, jy, jz = grid.current_arrays()
    for i in range(support):
        gx = grid.wrap_node_index(data.base_x + i, axis=0)
        for j in range(support):
            gy = grid.wrap_node_index(data.base_y + j, axis=1)
            wij = data.wx[:, i] * data.wy[:, j]
            for k in range(support):
                gz = grid.wrap_node_index(data.base_z + k, axis=2)
                w = wij * data.wz[:, k]
                np.add.at(jx, (gx, gy, gz), data.wqx * w)
                np.add.at(jy, (gx, gy, gz), data.wqy * w)
                np.add.at(jz, (gx, gy, gz), data.wqz * w)


def addat_gather_six(grid: Grid, tile, order: int) -> List[np.ndarray]:
    """The pre-stencil six-component gather: shape factors recomputed 6x."""
    out = []
    support = shape_support(order)
    for field in (grid.ex, grid.ey, grid.ez, grid.bx, grid.by, grid.bz):
        xi, yi, zi = grid.normalized_position(tile.x, tile.y, tile.z)
        bx, wx = shape_factors(xi, order)
        by, wy = shape_factors(yi, order)
        bz, wz = shape_factors(zi, order)
        result = np.zeros_like(np.asarray(tile.x, dtype=np.float64))
        for i in range(support):
            gx = grid.wrap_node_index(bx + i, axis=0)
            for j in range(support):
                gy = grid.wrap_node_index(by + j, axis=1)
                wij = wx[:, i] * wy[:, j]
                for k in range(support):
                    gz = grid.wrap_node_index(bz + k, axis=2)
                    result += wij * wz[:, k] * field[gx, gy, gz]
        out.append(result)
    return out


# ---------------------------------------------------------------------------
# measurement harness
# ---------------------------------------------------------------------------
def _best_of(func, reps: int = REPS) -> float:
    func()  # warm-up (allocators, table caches)
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _make_plasma(ppc: int, seed: int = 12):
    """One-tile uniform plasma with random thermal momenta."""
    from repro.config import SpeciesConfig
    from repro.pic.particles import ParticleContainer
    from repro.pic.plasma import load_uniform_plasma

    axis_ppc = max(1, round(ppc ** (1.0 / 3.0)))
    config = GridConfig(n_cell=BENCH_N_CELL, hi=(8.0e-6,) * 3,
                        tile_size=BENCH_N_CELL)
    grid = Grid(config)
    species = SpeciesConfig(ppc=(axis_ppc,) * 3)
    container = ParticleContainer(config, species)
    rng = np.random.default_rng(seed)
    load_uniform_plasma(grid, container, species, rng)
    for tile in container.iter_tiles():
        if tile.num_particles:
            tile.ux = rng.normal(0.0, 3.0e6, tile.num_particles)
            tile.uy = rng.normal(0.0, 3.0e6, tile.num_particles)
            tile.uz = rng.normal(0.0, 3.0e6, tile.num_particles)
    return grid, container


def _bench_point(order: int, ppc: int) -> Dict[str, float]:
    """Old-vs-new scatter and gather timings for one (order, ppc) cell."""
    grid, container = _make_plasma(ppc)
    tile = container.nonempty_tiles()[0]
    rng = np.random.default_rng(0)
    for name in ("ex", "ey", "ez", "bx", "by", "bz"):
        getattr(grid, name)[...] = rng.normal(size=grid.shape)

    # the scatter primitive itself: particle staging (identical in both
    # paths) excluded; the flat path re-derives its stencil every rep,
    # exactly as a fresh per-step tile staging would
    staged = prepare_tile_data(grid, tile, container.charge, order)

    def old_scatter():
        grid.zero_currents()
        addat_scatter_currents(grid, staged)

    def new_scatter():
        staged._stencil = None  # fresh stencil per rep, as per step
        grid.zero_currents()
        scatter_tile_currents(grid, staged)

    # the full deposition stage: staging + scatter
    def old_deposit():
        data = prepare_tile_data(grid, tile, container.charge, order)
        grid.zero_currents()
        addat_scatter_currents(grid, data)

    def new_deposit():
        data = prepare_tile_data(grid, tile, container.charge, order)
        grid.zero_currents()
        scatter_tile_currents(grid, data)

    old_s = _best_of(old_scatter)
    new_s = _best_of(new_scatter)
    old_d = _best_of(old_deposit)
    new_d = _best_of(new_deposit)
    old_g = _best_of(lambda: addat_gather_six(grid, tile, order))
    new_g = _best_of(lambda: gather_fields_for_tile(grid, tile, order))

    # parity guard: the benchmark only counts if both paths agree
    data = prepare_tile_data(grid, tile, container.charge, order)
    grid.zero_currents()
    addat_scatter_currents(grid, data)
    ref = grid.jx.copy()
    grid.zero_currents()
    scatter_tile_currents(
        grid, prepare_tile_data(grid, tile, container.charge, order))
    scale = float(np.abs(ref).max()) or 1.0
    rel_err = float(np.abs(grid.jx - ref).max()) / scale
    assert rel_err < 1e-12, f"scatter engine diverged from oracle: {rel_err}"
    for name, expected, got in zip(
            ("ex", "ey", "ez", "bx", "by", "bz"),
            addat_gather_six(grid, tile, order),
            gather_fields_for_tile(grid, tile, order)):
        scale = float(np.abs(expected).max()) or 1.0
        rel_err = float(np.abs(got - expected).max()) / scale
        assert rel_err < 1e-12, \
            f"gather of {name} diverged from oracle: {rel_err}"

    return {
        "order": order,
        "ppc": ppc,
        "num_particles": tile.num_particles,
        "scatter_addat_ms": old_s * 1e3,
        "scatter_flat_ms": new_s * 1e3,
        "scatter_speedup": old_s / new_s,
        "deposit_addat_ms": old_d * 1e3,
        "deposit_flat_ms": new_d * 1e3,
        "deposit_speedup": old_d / new_d,
        "gather_addat_ms": old_g * 1e3,
        "gather_flat_ms": new_g * 1e3,
        "gather_speedup": old_g / new_g,
        "combined_speedup": (old_d + old_g) / (new_d + new_g),
    }


def _available_tiers() -> List[str]:
    """The rows of the tier table :func:`activate` accepts here."""
    available = []
    for tier in KERNEL_TIERS:
        try:
            activate(tier)
        except ValueError:
            continue
        available.append(tier)
    return available


def _tier_bench_point(order: int, ppc: int) -> Dict[str, object]:
    """Full-deposit timing per kernel tier for one cell.

    Tiers that cannot run here (``fused`` without numba) get ``null``
    columns so the JSON schema is identical on every environment.  All
    runnable tiers are also checked bitwise against the oracle tier:
    a tier that diverges is a kernel bug, not a benchmark datapoint.
    """
    grid, container = _make_plasma(ppc)
    tile = container.nonempty_tiles()[0]
    available = _available_tiers()
    point: Dict[str, object] = {
        "order": order,
        "ppc": ppc,
        "num_particles": tile.num_particles,
    }
    currents: Dict[str, tuple] = {}
    for tier, kernels in KERNEL_TIERS.items():
        if tier not in available:
            point[f"deposit_{tier}_ms"] = None
            continue
        # the tier under test is the grid's: kernels travel with the grid
        grid.kernels = kernels

        def deposit():
            data = prepare_tile_data(grid, tile, container.charge, order)
            grid.zero_currents()
            scatter_tile_currents(grid, data)

        point[f"deposit_{tier}_ms"] = _best_of(deposit) * 1e3
        deposit()
        currents[tier] = (grid.jx.copy(), grid.jy.copy(), grid.jz.copy())
    for tier, arrays in currents.items():
        for ref, got in zip(currents["oracle"], arrays):
            assert np.array_equal(ref, got), (
                f"kernel tier {tier!r} diverged bitwise from the oracle "
                f"tier at order {order}"
            )
    oracle_ms = point["deposit_oracle_ms"]
    fused_ms = point.get("deposit_fused_ms")
    point["fused_deposit_speedup"] = (
        oracle_ms / fused_ms if fused_ms else None)
    return point


def _uniform_stage_seconds(order: int, ppc: int = 64, steps: int = 3
                           ) -> Dict[str, float]:
    """field_gather_push / current_deposition wall seconds per step through
    the new engine, on the uniform workload (the Figure 1 measurement)."""
    workload = UniformPlasmaWorkload(n_cell=BENCH_N_CELL,
                                     tile_size=BENCH_N_CELL, ppc=ppc,
                                     shape_order=order, max_steps=steps + 1)
    with workload.build_session() as session:
        session.run_all(steps=1)  # warm-up step
        session.breakdown.reset()
        session.run_all(steps=steps)
        seconds = dict(session.breakdown.seconds)
        return {
            "order": order,
            "ppc": ppc,
            "steps": steps,
            "field_gather_push_s_per_step":
                seconds.get("field_gather_push", 0.0) / steps,
            "current_deposition_s_per_step":
                seconds.get("current_deposition", 0.0) / steps,
        }


def output_path() -> str:
    """Trajectory JSON location (repo root by default)."""
    default = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_deposition_scatter.json")
    return os.environ.get("REPRO_BENCH_OUTPUT", default)


def run_benchmark() -> Dict[str, object]:
    points = [_bench_point(order, ppc) for order in ORDERS
              for ppc in PPC_POINTS]
    tier_points = [_tier_bench_point(order, ppc) for order in ORDERS
                   for ppc in PPC_POINTS]
    stages = [_uniform_stage_seconds(order) for order in (1, 3)]
    report = {
        "benchmark": "deposition_scatter",
        "n_cell": list(BENCH_N_CELL),
        "reps": REPS,
        "points": points,
        "kernel_tiers": {
            "registered": list(KERNEL_TIERS),
            "available": _available_tiers(),
            "points": tier_points,
        },
        "uniform_stage_seconds": stages,
    }
    return report


def format_report(report: Dict[str, object]) -> str:
    lines = [f"{'order':>5s} {'ppc':>5s} {'scatter':>8s} {'deposit':>8s} "
             f"{'gather':>8s} {'combined':>9s}   (speedup, np.add.at -> flat)"]
    for p in report["points"]:
        lines.append(
            f"{p['order']:>5d} {p['ppc']:>5d} "
            f"{p['scatter_speedup']:>7.1f}x {p['deposit_speedup']:>7.1f}x "
            f"{p['gather_speedup']:>7.1f}x {p['combined_speedup']:>8.1f}x"
        )
    tiers = report["kernel_tiers"]
    lines.append("")
    lines.append(f"kernel tiers available: {', '.join(tiers['available'])}")
    lines.append(f"{'order':>5s} {'ppc':>5s} " + " ".join(
        f"{'deposit/' + t:>14s}" for t in tiers["registered"])
        + f" {'fused vs oracle':>16s}")
    for p in tiers["points"]:
        cols = []
        for t in tiers["registered"]:
            ms = p[f"deposit_{t}_ms"]
            cols.append(f"{ms:>11.2f} ms" if ms is not None else
                        f"{'n/a':>14s}")
        speedup = p["fused_deposit_speedup"]
        tail = f"{speedup:>15.1f}x" if speedup is not None else f"{'n/a':>16s}"
        lines.append(f"{p['order']:>5d} {p['ppc']:>5d} "
                     + " ".join(cols) + f" {tail}")
    lines.append("")
    for s in report["uniform_stage_seconds"]:
        lines.append(
            f"uniform order {s['order']} (PPC={s['ppc']}): "
            f"gather+push {1e3 * s['field_gather_push_s_per_step']:.1f} ms/step, "
            f"deposition {1e3 * s['current_deposition_s_per_step']:.1f} ms/step"
        )
    return "\n".join(lines)


def append_history(report: Dict[str, object], path: str) -> int:
    """Append ``report`` to the trajectory file's ``history`` list.

    Earlier runs are preserved: a file in the legacy single-record
    format (no ``history`` key) is wrapped as the first entry.  Returns
    the number of records the file holds after the append.
    """
    entry = dict(report)
    entry["recorded_utc"] = time.strftime(
        "%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    history: List[Dict[str, object]] = []
    if os.path.exists(path):
        with open(path) as handle:
            existing = json.load(handle)
        if isinstance(existing, dict) and "history" in existing:
            history = list(existing["history"])
        elif existing:
            history = [existing]
    history.append(entry)
    payload = {"benchmark": "deposition_scatter", "history": history}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return len(history)


def main() -> None:
    report = run_benchmark()
    print(format_report(report))

    path = output_path()
    count = append_history(report, path)
    print(f"\ntimings appended to {path} (record {count} of the history)")

    cic = [p for p in report["points"]
           if p["order"] == 1 and p["ppc"] == max(PPC_POINTS)][0]
    assert cic["scatter_speedup"] >= CIC_SCATTER_TARGET, (
        f"flat-index CIC scatter only {cic['scatter_speedup']:.2f}x faster "
        f"than the np.add.at oracle (target >={CIC_SCATTER_TARGET}x)"
    )
    qsp = [p for p in report["points"]
           if p["order"] == 3 and p["ppc"] == max(PPC_POINTS)][0]
    print(f"CIC scatter speedup: {cic['scatter_speedup']:.1f}x "
          f"(target >={CIC_SCATTER_TARGET}x: met); "
          f"QSP gather+deposit combined: {qsp['combined_speedup']:.1f}x")

    if "fused" in report["kernel_tiers"]["available"]:
        tier_cic = [p for p in report["kernel_tiers"]["points"]
                    if p["order"] == 1 and p["ppc"] == max(PPC_POINTS)][0]
        speedup = tier_cic["fused_deposit_speedup"]
        assert speedup >= FUSED_CIC_DEPOSIT_TARGET, (
            f"fused CIC deposit only {speedup:.2f}x faster than the "
            f"oracle tier (target >={FUSED_CIC_DEPOSIT_TARGET}x)"
        )
        print(f"fused CIC deposit speedup: {speedup:.1f}x "
              f"(target >={FUSED_CIC_DEPOSIT_TARGET}x: met)")
    else:
        print("fused tier unavailable here (no numba); tier columns "
              "recorded as null, speedup gate skipped")


def test_deposition_scatter(print_header):
    """Pytest entry point: the full microbenchmark plus the CI gate."""
    print_header("Deposition scatter engine: np.add.at oracle vs flat-index")
    main()


if __name__ == "__main__":
    main()
