"""Command-line interface: ``python -m repro campaign|run ...``.

The ``campaign`` subcommand expands a declarative (workload x PPC x
configuration) grid, runs it through the experiment cache and an optional
process pool (:mod:`repro.analysis.campaign`) and renders the results as a
table, CSV or JSON.  A repeated invocation with the same grid and cache
directory is a pure cache hit, and a killed one, re-run the same way,
computes only the cells it had not finished::

    python -m repro campaign --workload uniform --ppc 8,64 \\
        --configurations "Baseline,MatrixPIC (FullOpt)" \\
        --steps 2 --jobs 2 --cache-dir .repro-cache --format table

The JSON output embeds the cache accounting (``{"cache": {"hits": ...}}``)
so CI jobs can assert a warm rerun recomputed nothing.

The ``run`` subcommand drives one :class:`repro.api.Session` (and
therefore the :mod:`repro.pipeline` stage list) and reports the
per-stage wall-time breakdown plus, optionally, the energy history::

    python -m repro run --workload uniform --ppc 8 --steps 5 \\
        --backend threads --shards 4 --domains 2,1,1 --record-energy
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

from repro._version import __version__
from repro.analysis.cache import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    default_cache_dir,
)
from repro.backend import activate
from repro.ckpt.store import CKPT_DIR_ENV, DEFAULT_CHECKPOINT_DIR
from repro.exec import SUPPORTED_BACKENDS
from repro.workloads import GRID_CHOICES, GRID_DEFAULTS, workload_for_family


def _comma_list(text: str) -> List[str]:
    items = [item.strip() for item in text.split(",")]
    return [item for item in items if item]


def _int_list(text: str) -> List[int]:
    try:
        return [int(item) for item in _comma_list(text)]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of integers, got {text!r}"
        ) from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def _positive_int_list(text: str) -> List[int]:
    values = _int_list(text)
    if any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError(
            f"expected positive integers, got {text!r}")
    return values


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return value


def _int3(text: str) -> Tuple[int, int, int]:
    values = _int_list(text)
    if len(values) != 3 or any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError(
            f"expected exactly 3 comma-separated positive integers, "
            f"got {text!r}"
        )
    return tuple(values)  # type: ignore[return-value]


def _joined(key: str) -> str:
    return ",".join(str(item) for item in GRID_DEFAULTS[key])


def _add_grid_arguments(sub: argparse.ArgumentParser) -> None:
    """The grid options ``campaign`` and ``run`` share, read from the one
    schema in :mod:`repro.workloads` (``repro.serve`` reads the same)."""
    sub.add_argument("--workload", choices=GRID_CHOICES["workload"],
                     default=GRID_DEFAULTS["workload"],
                     help="workload family "
                          f"(default: {GRID_DEFAULTS['workload']})")
    sub.add_argument("--shape-order", type=int,
                     choices=GRID_CHOICES["shape_order"], default=None,
                     help="deposition shape order (uniform workload only — "
                          "the lwfa workload is fixed at order 1; "
                          "default: 1)")
    sub.add_argument("--n-cell", type=_int3, default=None,
                     metavar="NX,NY,NZ",
                     help="grid cells per axis (defaults: 8,8,8 uniform / "
                          "8,8,32 lwfa)")
    sub.add_argument("--tile-size", type=_int3, default=None,
                     metavar="TX,TY,TZ",
                     help="particle tile size per axis (defaults: 8,8,8 "
                          "uniform / 8,8,16 lwfa)")
    sub.add_argument("--domains", type=_int3, default=None,
                     metavar="PX,PY,PZ",
                     help="domain decomposition of the grid (repro.domain; "
                          "default: 1,1,1 = single domain).  Decomposed "
                          "runs are bitwise identical to single-domain "
                          "ones at a fixed shard count")
    sub.add_argument("--seed", type=_nonnegative_int,
                     default=GRID_DEFAULTS["seed"],
                     help="workload RNG seed "
                          f"(default: {GRID_DEFAULTS['seed']})")


def build_parser() -> argparse.ArgumentParser:
    """The top-level ``repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Matrix-PIC reproduction command-line tools.",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro-matrix-pic {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    campaign = subparsers.add_parser(
        "campaign",
        help="run a (workload x PPC x configuration) experiment sweep",
        description="Expand and run an experiment grid through the "
                    "on-disk result cache and an optional process pool.",
    )
    _add_grid_arguments(campaign)
    campaign.add_argument("--ppc", type=_positive_int_list,
                          default=list(GRID_DEFAULTS["ppc"]),
                          metavar="N[,N...]",
                          help="comma-separated particles-per-cell scan "
                               f"(default: {_joined('ppc')})")
    campaign.add_argument("--configurations", type=_comma_list,
                          default=list(GRID_DEFAULTS["configurations"]),
                          metavar="NAME[,NAME...]",
                          help='comma-separated configuration names '
                               f'(default: "{_joined("configurations")}")')
    campaign.add_argument("--list-configurations", action="store_true",
                          help="print the available configuration names "
                               "and exit")
    campaign.add_argument("--steps", type=_nonnegative_int,
                          default=GRID_DEFAULTS["steps"],
                          help="measured steps per experiment "
                               f"(default: {GRID_DEFAULTS['steps']})")
    campaign.add_argument("--warmup-steps", type=_nonnegative_int,
                          default=GRID_DEFAULTS["warmup_steps"],
                          help="warm-up steps excluded from measurement "
                               f"(default: {GRID_DEFAULTS['warmup_steps']})")
    campaign.add_argument("--no-scramble", action="store_true",
                          help="keep the freshly loaded particle order "
                               "instead of scrambling it")
    campaign.add_argument("--jobs", type=_positive_int, default=1,
                          help="worker processes for cache misses "
                               "(default: 1 = serial)")
    campaign.add_argument("--cache-dir", default=None,
                          help=f"result cache directory (default: "
                               f"${CACHE_DIR_ENV} or {DEFAULT_CACHE_DIR}); "
                               "every completed cell is stored there at "
                               "once, so a killed sweep re-run on it "
                               "resumes")
    campaign.add_argument("--no-cache", action="store_true",
                          help="disable the result cache entirely (nothing "
                               "durable is kept)")
    campaign.add_argument("--cache-max-bytes", type=_nonnegative_int,
                          default=None, metavar="BYTES",
                          help="after the run, LRU-evict cache entries "
                               "until the cache directory holds at most "
                               "BYTES (least recently used first; replayed "
                               "entries count as recently used)")
    campaign.add_argument("--clear-cache", action="store_true",
                          help="delete every cached entry (including ones "
                               "stranded by source edits or version bumps) "
                               "before running")
    campaign.add_argument("--trace", default=None, metavar="FILE",
                          help="record a Chrome trace_event timeline of "
                               "the campaign (repro.obs) and write it to "
                               "FILE")
    campaign.add_argument("--metrics", action="store_true",
                          help="collect telemetry counters in every cell "
                               "(repro.obs); the JSON output then embeds "
                               "the aggregated campaign metrics")
    campaign.add_argument("--format", choices=("table", "csv", "json"),
                          default="table",
                          help="output format (default: table)")
    campaign.set_defaults(func=cmd_campaign)

    run = subparsers.add_parser(
        "run",
        help="run one simulation as a repro.api.Session",
        description="Build a single workload, drive it with Session.run "
                    "(the repro.pipeline stage graph) and print the "
                    "per-stage wall-time breakdown.",
    )
    _add_grid_arguments(run)
    run.add_argument("--ppc", type=_positive_int, default=8,
                     help="particles per cell (default: 8)")
    run.add_argument("--steps", type=_nonnegative_int, default=5,
                     help="steps to run (default: 5)")
    run.add_argument("--backend", choices=SUPPORTED_BACKENDS,
                     default="serial",
                     help="tile execution backend (default: serial)")
    run.add_argument("--shards", type=_positive_int, default=1,
                     help="tile shards / workers per stage (default: 1)")
    run.add_argument("--record-energy", action="store_true",
                     help="record the energy history and report the drift")
    run.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                     help="session snapshot directory (default: "
                          f"${CKPT_DIR_ENV} or {DEFAULT_CHECKPOINT_DIR})")
    run.add_argument("--checkpoint-every", type=_positive_int,
                     default=None, metavar="N",
                     help="write a full-session snapshot every N completed "
                          "steps (repro.ckpt; snapshots are checksummed "
                          "and written atomically)")
    run.add_argument("--resume", action="store_true",
                     help="restore the latest valid snapshot from the "
                          "checkpoint directory and run only the remaining "
                          "steps; the resumed run is bitwise identical to "
                          "an uninterrupted one")
    run.add_argument("--trace", default=None, metavar="FILE",
                     help="record a Chrome trace_event timeline of the run "
                          "(repro.obs) and write it to FILE; open it in "
                          "Perfetto or chrome://tracing")
    run.add_argument("--metrics", action="store_true",
                     help="collect telemetry counters (repro.obs) and "
                          "include the snapshot in the output")
    run.add_argument("--health", action="store_true",
                     help="enable per-step physics-health probes (energy "
                          "drift, charge conservation, NaN/Inf guards)")
    run.add_argument("--format", choices=("table", "json"), default="table",
                     help="output format (default: table)")
    run.set_defaults(func=cmd_run)

    serve = subparsers.add_parser(
        "serve",
        help="run the asyncio campaign job service (HTTP/JSON + SSE)",
        description="Serve campaign grids over HTTP (repro.serve): "
                    "durable job queue, per-cell dedup against the "
                    "result cache and in-flight work, SSE progress "
                    "streams and per-tenant cache namespaces.",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=_nonnegative_int, default=8765,
                       help="bind port; 0 picks a free port "
                            "(default: 8765)")
    serve.add_argument("--root", default=None, metavar="DIR",
                       help="service state directory holding the job "
                            "journal and the per-tenant caches "
                            "(default: .repro-serve)")
    serve.add_argument("--jobs", type=_positive_int, default=1,
                       help="concurrent worker processes for cell "
                            "computation (default: 1)")
    serve.add_argument("--tenant-max-bytes", type=_nonnegative_int,
                       default=None, metavar="BYTES",
                       help="per-tenant cache byte budget, enforced by "
                            "LRU eviction after every store (default: "
                            "unbounded)")
    serve.add_argument("--memo-entries", type=_nonnegative_int,
                       default=256, metavar="N",
                       help="bound of the in-memory cross-tenant result "
                            "memo (default: 256)")
    serve.add_argument("--trace", action="store_true",
                       help="record repro.obs spans/events and forward "
                            "them on the SSE streams as 'trace' frames")
    serve.set_defaults(func=cmd_serve)

    trace = subparsers.add_parser(
        "trace",
        help="inspect trace files recorded with --trace",
        description="Summarize or validate Chrome trace_event files "
                    "written by the run/campaign --trace flag "
                    "(repro.obs).",
    )
    trace_sub = trace.add_subparsers(dest="trace_command")
    summarize = trace_sub.add_parser(
        "summarize",
        help="per-span timing totals and counter values of a trace file",
        description="Aggregate a trace file: span counts and total "
                    "microseconds, final counter values, instant-event "
                    "counts and the maximum span nesting depth.",
    )
    summarize.add_argument("file", help="trace file (Chrome JSON or the "
                                        "JSONL event log)")
    summarize.add_argument("--format", choices=("table", "json"),
                           default="table",
                           help="output format (default: table)")
    summarize.set_defaults(func=cmd_trace_summarize)
    validate = trace_sub.add_parser(
        "validate",
        help="check a trace file against the trace_event schema",
        description="Validate a Chrome trace file: JSON schema "
                    "conformance, monotonic timestamps and strict "
                    "begin/end span nesting; exits 1 on any violation.",
    )
    validate.add_argument("file", help="Chrome trace JSON file")
    validate.set_defaults(func=cmd_trace_validate)
    return parser


def _observe_config(args, *, trace: bool = False):
    """The :class:`repro.obs.ObsConfig` requested by the CLI flags.

    ``trace`` controls whether the per-run telemetry records span events
    (the campaign command keeps cell tracing off — worker processes
    cannot ship event timelines back — and traces at the campaign level
    instead).
    """
    from repro.obs import ObsConfig

    return ObsConfig(
        enabled=bool(getattr(args, "metrics", False)
                     or getattr(args, "trace", None)
                     or getattr(args, "health", False)),
        trace=trace,
        health=bool(getattr(args, "health", False)),
    )


def _make_workload(family: str, *, ppc: int, args, execution=None,
                   observe=None):
    """One workload builder with the CLI defaults.

    Thin adapter over :func:`repro.workloads.workload_for_family` — the
    single defaulting point shared with the ``repro.serve`` job service,
    so HTTP submissions and CLI invocations of the same grid hash to the
    same campaign cache keys.
    """
    return workload_for_family(
        family,
        ppc=ppc,
        max_steps=args.steps,
        seed=args.seed,
        domains=args.domains,
        n_cell=args.n_cell,
        tile_size=args.tile_size,
        shape_order=args.shape_order,
        execution=execution,
        observe=observe,
    )


def _build_workloads(args) -> list:
    domains = args.domains or (1, 1, 1)
    observe = _observe_config(args)
    workloads = [_make_workload(args.workload, ppc=ppc, args=args,
                                observe=observe if observe.enabled else None)
                 for ppc in args.ppc]
    # fail fast on a kernel tier that cannot run here (named by
    # REPRO_KERNEL_TIER), before any cell runs
    activate()
    if domains != (1, 1, 1):
        # fail fast on a decomposition the tile lattice cannot support
        from repro.domain.decomposition import Decomposition

        Decomposition(workloads[0].build_config().grid, domains)
    return workloads


def _render_csv(campaign_result, stream) -> None:
    from repro.analysis.tables import campaign_rows

    rows = campaign_rows(campaign_result)
    if not rows:
        return
    # union of keys in first-seen order (extras can differ per config)
    fieldnames: List[str] = []
    for row in rows:
        for name in row:
            if name not in fieldnames:
                fieldnames.append(name)
    writer = csv.DictWriter(stream, fieldnames=fieldnames, restval="")
    writer.writeheader()
    writer.writerows(rows)


def cmd_campaign(args, stdout=None) -> int:
    """Entry point of the ``campaign`` subcommand."""
    from repro.analysis.cache import ResultCache
    from repro.analysis.campaign import Campaign
    from repro.analysis.tables import format_campaign_table
    from repro.baselines.configs import available_configurations

    stdout = stdout if stdout is not None else sys.stdout

    if args.list_configurations:
        for name in available_configurations():
            print(name, file=stdout)
        return 0

    if not args.ppc or not args.configurations:
        print("error: --ppc and --configurations must each name at least "
              "one value", file=sys.stderr)
        return 2

    unknown = [name for name in args.configurations
               if name not in available_configurations()]
    if unknown:
        print(f"error: unknown configuration(s) {unknown}; "
              f"valid names: {list(available_configurations())}",
              file=sys.stderr)
        return 2

    cache_dir = args.cache_dir if args.cache_dir else default_cache_dir()
    if args.clear_cache:
        removed = ResultCache(cache_dir).clear()
        print(f"cleared {removed} cached file(s) from {cache_dir}",
              file=sys.stderr)
    cache = None if args.no_cache else ResultCache(cache_dir)

    try:
        workloads = _build_workloads(args)
    except ValueError as exc:
        # invalid workload parameters (e.g. a PPC outside the paper's
        # scan that is not a perfect cube) get a usage-style error, not
        # a traceback from deep inside the campaign run
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # the campaign-level registry (disabled without --trace/--metrics);
    # cells record into their own per-run handles
    from repro.obs import ObsConfig, Telemetry

    handle = Telemetry(ObsConfig(enabled=bool(args.trace or args.metrics),
                                 trace=bool(args.trace)))
    outcome = Campaign.from_grid(
        workloads, args.configurations,
        steps=args.steps, warmup_steps=args.warmup_steps,
        scramble=not args.no_scramble,
        cache=cache, jobs=args.jobs,
        obs=handle,
    ).run()
    if args.trace:
        from repro.obs import export_chrome_trace

        export_chrome_trace(handle, args.trace)
        print(f"trace written to {args.trace} "
              f"({len(handle.events)} events)", file=sys.stderr)

    if cache is not None and args.cache_max_bytes is not None:
        evicted = cache.evict(args.cache_max_bytes)
        if evicted:
            print(f"evicted {evicted} cache entr"
                  f"{'y' if evicted == 1 else 'ies'} "
                  f"(cache bounded to {args.cache_max_bytes} bytes)",
                  file=sys.stderr)

    if args.format == "json":
        print(json.dumps(outcome.to_json(), indent=2, sort_keys=True),
              file=stdout)
    elif args.format == "csv":
        buffer = io.StringIO()
        _render_csv(outcome, buffer)
        print(buffer.getvalue(), end="", file=stdout)
    else:
        print(format_campaign_table(outcome), file=stdout)
    return 0


def _build_run_workload(args):
    """A single workload builder for the ``run`` subcommand."""
    from repro.config import ExecutionConfig

    execution = ExecutionConfig(backend=args.backend, num_shards=args.shards)
    observe = _observe_config(args, trace=bool(args.trace))
    return _make_workload(args.workload, ppc=args.ppc, args=args,
                          execution=execution,
                          observe=observe if observe.enabled else None)


def cmd_run(args, stdout=None) -> int:
    """Entry point of the ``run`` subcommand."""
    stdout = stdout if stdout is not None else sys.stdout

    try:
        workload = _build_run_workload(args)
        # building the session also validates the decomposition against
        # the tile lattice — surface that as a usage error, not a traceback
        session = workload.build_session()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    checkpointing = args.checkpoint_every is not None or args.resume
    checkpoint_dir = args.checkpoint_dir
    if checkpointing and checkpoint_dir is None:
        from repro.ckpt import default_checkpoint_dir

        checkpoint_dir = default_checkpoint_dir()

    with session:
        steps = args.steps
        if args.resume:
            from repro.ckpt import SnapshotError, latest_valid_snapshot

            loaded = latest_valid_snapshot(checkpoint_dir,
                                           session.telemetry)
            if loaded is not None:
                try:
                    session.restore(loaded.path)
                except SnapshotError as exc:
                    print(f"error: cannot resume from {loaded.path}: {exc}",
                          file=sys.stderr)
                    return 2
                print(f"resumed from {loaded.path} "
                      f"(step {loaded.step})", file=sys.stderr)
            # run only what remains toward the requested step count
            steps = max(0, args.steps - session.step_index)
        if args.checkpoint_every is not None:
            from repro.ckpt import CheckpointHook

            # fail before the first step, not at the first snapshot
            try:
                os.makedirs(checkpoint_dir, exist_ok=True)
                if not os.access(checkpoint_dir, os.W_OK | os.X_OK):
                    raise PermissionError(f"{checkpoint_dir!r} is not "
                                          "writable")
            except OSError as exc:
                print(f"error: cannot use checkpoint directory: {exc}",
                      file=sys.stderr)
                return 2
            session.pipeline.add_step_hook(
                CheckpointHook(checkpoint_dir,
                               every=args.checkpoint_every))
        for _ in session.run(steps, record_energy=args.record_energy):
            pass
        payload = {
            "workload": args.workload,
            "ppc": args.ppc,
            "steps": session.step_index,
            "num_particles": session.num_particles,
            "backend": args.backend,
            "shards": args.shards,
            "kernel_tier": session.breakdown.kernel_tier,
            "domains": list(args.domains or (1, 1, 1)),
            "stages": session.pipeline.stage_names(),
            "stage_seconds": {row["stage"]: row["seconds"]
                              for row in session.breakdown.stage_rows()},
            "bucket_seconds": dict(session.breakdown.seconds),
        }
        if args.record_energy:
            payload["energy_history"] = [
                {"step": r.step, "field": r.field_energy,
                 "kinetic": r.kinetic_energy}
                for r in session.energy.history
            ]
            payload["relative_energy_drift"] = \
                session.energy.relative_energy_drift()
        if args.metrics or args.trace or args.health:
            # the full registry (deterministic=False keeps the time.* /
            # exec.* series — this is a live report, not a cache artifact)
            payload["metrics"] = session.telemetry.snapshot(
                deterministic=False)
        if args.trace:
            from repro.obs import export_chrome_trace

            export_chrome_trace(session.telemetry, args.trace)
            print(f"trace written to {args.trace} "
                  f"({len(session.telemetry.events)} events)",
                  file=sys.stderr)

    if args.format == "json":
        payload["stages"] = list(payload["stages"])
        print(json.dumps(payload, indent=2, sort_keys=True), file=stdout)
        return 0

    print(f"workload={args.workload} ppc={args.ppc} "
          f"steps={payload['steps']} particles={payload['num_particles']}",
          file=stdout)
    print(f"pipeline: {' -> '.join(payload['stages'])}", file=stdout)
    print(f"executor: {args.backend} x{args.shards}, "
          f"domains={tuple(payload['domains'])}, "
          f"kernel-tier={payload['kernel_tier']}", file=stdout)
    total = sum(payload["stage_seconds"].values()) or 1.0
    print("per-stage wall time:", file=stdout)
    for stage, seconds in payload["stage_seconds"].items():
        print(f"  {stage:16s} {seconds:9.4f} s  {100.0 * seconds / total:5.1f} %",
              file=stdout)
    if args.record_energy:
        print(f"relative energy drift: "
              f"{payload['relative_energy_drift']:.3e}", file=stdout)
    if args.metrics and payload.get("metrics"):
        print("telemetry counters:", file=stdout)
        for name, value in payload["metrics"].items():
            print(f"  {name:32s} {value:g}", file=stdout)
    return 0


def cmd_serve(args, stdout=None) -> int:
    """Entry point of the ``serve`` subcommand."""
    from repro.serve import DEFAULT_ROOT, ServeConfig, run_server

    # a kernel tier that cannot run here (named by REPRO_KERNEL_TIER)
    # would fail every cell: refuse it before binding
    try:
        activate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = ServeConfig(
        host=args.host,
        port=args.port,
        root=args.root if args.root is not None else DEFAULT_ROOT,
        jobs=args.jobs,
        tenant_max_bytes=args.tenant_max_bytes,
        memo_entries=args.memo_entries,
        trace=args.trace,
    )
    return run_server(config)


def cmd_trace_summarize(args, stdout=None) -> int:
    """Entry point of the ``trace summarize`` subcommand."""
    from repro.obs import summarize_trace

    stdout = stdout if stdout is not None else sys.stdout
    try:
        summary = summarize_trace(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True), file=stdout)
        return 0
    print(f"{summary['events']} events, max span depth "
          f"{summary['max_depth']}", file=stdout)
    if summary["spans"]:
        print("spans:", file=stdout)
        for name, row in summary["spans"].items():
            print(f"  {name:24s} x{row['count']:<6d} "
                  f"{row['total_us'] / 1000.0:10.3f} ms", file=stdout)
    if summary["counters"]:
        print("counters (last sample):", file=stdout)
        for series, values in summary["counters"].items():
            for name, value in sorted(values.items()):
                print(f"  {series}.{name:32s} {value:g}", file=stdout)
    if summary["instants"]:
        print("instant events:", file=stdout)
        for name, count in summary["instants"].items():
            print(f"  {name:32s} x{count}", file=stdout)
    return 0


def cmd_trace_validate(args, stdout=None) -> int:
    """Entry point of the ``trace validate`` subcommand."""
    from repro.obs import validate_chrome_trace

    stdout = stdout if stdout is not None else sys.stdout
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    errors = validate_chrome_trace(payload)
    if errors:
        for error in errors:
            print(f"invalid: {error}", file=stdout)
        return 1
    events = payload.get("traceEvents", [])
    print(f"OK: {len(events)} events conform to the trace_event schema",
          file=stdout)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 2
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
