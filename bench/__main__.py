"""``python -m bench run|compare`` — see ``bench/README.md``."""

from __future__ import annotations

import argparse
import os
import sys

from bench.harness import ALLOCATOR_ENV, ROOT


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench",
        description="The repository's benchmark (contract: BENCHMARK.json).")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="measure; with no --workload/--trace, the whole suite")
    run.add_argument("--workload", default=None,
                     help="one workload of BENCHMARK.json (default: all)")
    run.add_argument("--seed", type=int, default=2026,
                     help="inputs are generated from it (default 2026)")
    run.add_argument("--seconds", type=float, default=None,
                     help="measured window of the untraced pass "
                          "(default: run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=None,
                     help="0: end-to-end metrics, tracing off; 1: per-layer "
                          "metrics from the traced pass (default: both)")
    run.add_argument("--reps", type=int, default=1,
                     help="repetitions, each on the next seed; the traced "
                          "pass of a suite runs on the first only")
    run.add_argument("--smoke", action="store_true",
                     help="tiny inputs and windows: every code path and "
                          "gate in a few seconds, numbers meaningless")
    run.add_argument("--out", default=None, metavar="FILE",
                     help="JSON-lines file the records are appended to "
                          "(default bench/out/history.jsonl)")

    compare = commands.add_parser(
        "compare", help="verdict per workload x end-to-end metric")
    compare.add_argument("base", help="JSON-lines records of the parent")
    compare.add_argument("change", help="JSON-lines records of the change")

    args = parser.parse_args()

    source = ROOT / "src"
    if not (source / "repro").is_dir():
        # the benchmark measures the program; without it there is
        # nothing to report
        print(f"bench: {source / 'repro'} not found — run from a checkout "
              "that holds the program", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    if args.command == "run" and any(
            os.environ.get(name) != value
            for name, value in ALLOCATOR_ENV.items()):
        # malloc reads its settings once, at start-up
        os.execve(sys.executable,
                  [sys.executable, "-m", "bench"] + sys.argv[1:],
                  {**os.environ, **ALLOCATOR_ENV})

    if args.command == "compare":
        from bench.compare import compare_files
        return compare_files(args.base, args.change)
    from bench.suite import run_suite
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
