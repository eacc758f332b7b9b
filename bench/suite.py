"""``python -m bench run``: which workloads, which passes, how long."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from typing import Any, List, Tuple

from bench.harness import (
    HISTORY_PATH,
    ROOT,
    append_history,
    driver_line,
    environment_stamp,
    finish,
    format_record,
    load_contract,
)

#: ``--seconds`` of a ``--smoke`` run unless given
SMOKE_SECONDS = 0.3


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool):
    if name == "serve-grid":
        from bench import serve
        return serve.run(seed, seconds, trace, smoke)
    from bench import sim
    return sim.run(name, seed, seconds, trace, smoke)


def run_suite(args: Any) -> int:
    contract = load_contract()
    names = [entry["name"] for entry in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"bench: unknown workload {args.workload!r}; "
              f"BENCHMARK.json has {names}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else contract["run_seconds"]
    out = Path(args.out) if args.out else HISTORY_PATH

    #: (workload, seed, traced, seconds) of every run asked for
    units: List[Tuple[str, int, bool, float]] = []
    for rep in range(args.reps):
        for name in (names if args.workload is None else [args.workload]):
            if args.trace is not None:
                units.append((name, args.seed + rep, bool(args.trace),
                              seconds))
                continue
            units.append((name, args.seed + rep, False, seconds))
            if rep == 0:
                # per-layer numbers hold no bound: one traced run a set
                units.append((name, args.seed, True, seconds))

    if len(units) == 1:
        name, seed, trace, budget = units[0]
        result = run_workload(name, seed, budget, trace, args.smoke)
        record = finish(result, workload=name, seed=seed, seconds=budget,
                        trace=trace, smoke=args.smoke,
                        stamp=environment_stamp())
        append_history(record, out)
        print(format_record(record))
        print(f"record appended to {out}")
        print(driver_line(record), flush=True)
        return 0 if record["correct"] else 1

    # one process per run, as the driver makes them: a run must not
    # inherit the heap the run before it left behind
    failed = 0
    for name, seed, trace, budget in units:
        command = [sys.executable, "-m", "bench", "run", "--workload", name,
                   "--seed", str(seed), "--seconds", repr(budget),
                   "--trace", str(int(trace)), "--out", str(out.resolve())]
        if args.smoke:
            command.append("--smoke")
        failed += subprocess.run(command, cwd=ROOT).returncode != 0
    print(f"{len(units)} runs, {failed} with failed operations")
    return 1 if failed else 0
