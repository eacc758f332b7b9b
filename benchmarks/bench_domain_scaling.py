"""Domain-decomposed stepping: overhead/scaling vs the single-domain loop.

Runs the same uniform-plasma workload as a single domain and as
``(px, py, pz)`` decompositions (``repro.domain``), measuring wall
seconds per step, and asserts the subsystem's bitwise contract on every
point: at a fixed executor shard count, a decomposed run reproduces the
single-domain fields, currents and energy history bit for bit.

On a single-core machine (CI sandboxes) the decomposition cannot win —
halo exchange and seam reduction are pure overhead there — so the
benchmark gates on a *bounded overhead ratio* rather than a speedup, and
records the measured ratios in ``BENCH_domain_scaling.json`` (repo root,
override with ``$REPRO_BENCH_OUTPUT``) as the perf-trajectory datapoint
future multi-core runs are compared against.

Run standalone:  PYTHONPATH=src python benchmarks/bench_domain_scaling.py
Or via pytest:   python -m pytest benchmarks/bench_domain_scaling.py -s
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.config import ExecutionConfig
from repro.workloads.uniform import UniformPlasmaWorkload

#: (domains, backend, shards) grid; (1,1,1)/serial/1 is the baseline
SCALING_POINTS: Tuple[Tuple[Tuple[int, int, int], str, int], ...] = (
    ((1, 1, 2), "serial", 1),
    ((2, 1, 2), "serial", 1),
    ((2, 2, 2), "serial", 1),
    ((2, 1, 2), "threads", 4),
)
BENCH_N_CELL = (16, 16, 16)
BENCH_TILE = (4, 4, 4)
BENCH_PPC = 8
BENCH_STEPS = 3
BENCH_REPS = 3
#: worst acceptable slowdown of the decomposed serial step vs the plain
#: loop on a single core (halo copies + per-window seam reduction)
MAX_OVERHEAD_RATIO = 3.0


def available_cores() -> int:
    """Cores this process may run on (affinity-aware, falls back to count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def _run_point(domains: Tuple[int, int, int], backend: str, shards: int,
               steps: int = BENCH_STEPS):
    """Seconds per step plus the final (jx, energy history) fingerprint."""
    workload = UniformPlasmaWorkload(
        n_cell=BENCH_N_CELL, tile_size=BENCH_TILE, ppc=BENCH_PPC,
        max_steps=steps, domains=domains,
        execution=ExecutionConfig(backend=backend, num_shards=shards),
    )
    with workload.build_session() as session:
        session.run_all(steps=1)  # warm-up: pools, halo plans, solver scratch
        best = float("inf")
        for _ in range(BENCH_REPS):
            start = time.perf_counter()
            session.run_all(steps=steps)
            best = min(best, time.perf_counter() - start)
        for _ in session.run(steps=0, record_energy=True):
            pass
        energy = session.energy.history[-1]
        return (best / steps, session.grid.jx.copy(),
                (energy.field_energy, energy.kinetic_energy))


def run_scaling() -> List[Dict[str, object]]:
    """One row per decomposition point, parity-checked against baselines.

    Parity is asserted against a single-domain run at the *same* backend
    and shard count — the determinism contract's exact scope.
    """
    rows: List[Dict[str, object]] = []
    baselines: Dict[Tuple[str, int], Tuple] = {}
    serial_seconds, jx0, energy0 = _run_point((1, 1, 1), "serial", 1)
    baselines[("serial", 1)] = (serial_seconds, jx0, energy0)
    rows.append({
        "domains": [1, 1, 1], "backend": "serial", "shards": 1,
        "seconds_per_step": serial_seconds, "overhead_ratio": 1.0,
        "bitwise_parity": True,
    })
    for domains, backend, shards in SCALING_POINTS:
        if (backend, shards) not in baselines:
            baselines[(backend, shards)] = _run_point((1, 1, 1), backend,
                                                      shards)
        base_seconds, base_jx, base_energy = baselines[(backend, shards)]
        seconds, jx, energy = _run_point(domains, backend, shards)
        rows.append({
            "domains": list(domains),
            "backend": backend,
            "shards": shards,
            "seconds_per_step": seconds,
            "overhead_ratio": seconds / base_seconds if base_seconds > 0
            else float("inf"),
            "bitwise_parity": bool(
                np.array_equal(jx, base_jx) and energy == base_energy
            ),
        })
    return rows


def format_rows(rows: List[Dict[str, object]]) -> str:
    lines = [f"{'domains':>10s} {'backend':>9s} {'shards':>6s} "
             f"{'s/step':>9s} {'overhead':>9s} {'parity':>7s}"]
    for row in rows:
        domains = "x".join(str(d) for d in row["domains"])
        lines.append(
            f"{domains:>10s} {row['backend']:>9s} {row['shards']:>6d} "
            f"{row['seconds_per_step']:>9.4f} {row['overhead_ratio']:>8.2f}x "
            f"{'ok' if row['bitwise_parity'] else 'FAIL':>7s}"
        )
    return "\n".join(lines)


def output_path() -> str:
    """Trajectory JSON location: ``$REPRO_BENCH_OUTPUT`` if set, else the
    repo root's file."""
    default = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCH_domain_scaling.json")
    return os.environ.get("REPRO_BENCH_OUTPUT", default)


def main() -> None:
    cores = available_cores()
    print(f"domain-decomposed step loop, uniform plasma "
          f"{BENCH_N_CELL[0]}^3 cells / {BENCH_TILE[0]}^3 tiles, "
          f"PPC={BENCH_PPC}, {cores} core(s) visible")
    rows = run_scaling()
    print(format_rows(rows))

    report = {
        "benchmark": "domain_scaling",
        "n_cell": list(BENCH_N_CELL),
        "tile_size": list(BENCH_TILE),
        "ppc": BENCH_PPC,
        "steps": BENCH_STEPS,
        "reps": BENCH_REPS,
        "cores_visible": cores,
        "max_overhead_ratio": MAX_OVERHEAD_RATIO,
        "rows": rows,
    }
    path = output_path()
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"timings written to {path}")

    assert all(row["bitwise_parity"] for row in rows), \
        "a decomposed run broke the bitwise parity contract"
    serial_rows = [row for row in rows
                   if row["backend"] == "serial" and row["domains"] != [1, 1, 1]]
    worst = max(row["overhead_ratio"] for row in serial_rows)
    assert worst <= MAX_OVERHEAD_RATIO, (
        f"decomposed serial stepping is {worst:.2f}x the single-domain "
        f"loop (budget <={MAX_OVERHEAD_RATIO}x)"
    )
    print(f"\nworst serial decomposition overhead: {worst:.2f}x "
          f"(budget <={MAX_OVERHEAD_RATIO}x: met); parity ok on "
          f"{len(rows)} point(s)")


def test_domain_scaling(print_header):
    """Pytest entry point: scaling table plus the parity assertions."""
    print_header("Domain-decomposed stepping: overhead, scaling and parity")
    main()


if __name__ == "__main__":
    main()
