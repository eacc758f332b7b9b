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

The ``run`` subcommand runs one cell — a one-cell grid, expanded and run
as a campaign's are (:func:`repro.analysis.runner.run_spec`), with no
warm-up and no scramble — and reports the per-stage wall-time breakdown
plus, optionally, the energy history.  ``--configuration`` takes any
``--configurations`` name (default: the reference deposit); the paper's
path checkpoints, resumes bit for bit and traces like any other::

    python -m repro run --workload uniform --ppc 8 --steps 5 \\
        --backend threads --shards 4 --domains 2,1,1 --record-energy
    python -m repro run --configuration "MatrixPIC (FullOpt)" \\
        --steps 20 --checkpoint-every 10 --trace mpic-trace.json
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import List, Optional, Sequence

from repro._version import __version__
from repro.analysis.cache import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    default_cache_dir,
)
from repro.ckpt.store import CKPT_DIR_ENV, DEFAULT_CHECKPOINT_DIR
from repro.config import SUPPORTED_BACKENDS, ExecutionConfig
from repro.pic.simulation import ReferenceDeposition
from repro.workloads import (
    FAMILIES,
    GRID_CHOICES,
    GRID_DEFAULTS,
)


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


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from exc
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}, got {text!r}")
        return value
    return parse


_positive_int, _nonnegative_int = _int_at_least(1), _int_at_least(0)


def _joined(values: Sequence) -> str:
    return ",".join(str(item) for item in values)


def _family_defaults(key: str) -> str:
    return " / ".join(f"{_joined(family[key])} {name}"
                      for name, family in FAMILIES.items())


def _add_grid_arguments(sub: argparse.ArgumentParser) -> None:
    """The grid options ``campaign`` and ``run`` share, read from the one
    schema in :mod:`repro.workloads` (``repro.serve`` reads the same).

    They parse syntax only; the ranges are checked where the grid is
    expanded (``expand_request``, ``workload_for_family``).
    """
    sub.add_argument("--workload", choices=GRID_CHOICES["workload"],
                     default=GRID_DEFAULTS["workload"],
                     help="workload family "
                          f"(default: {GRID_DEFAULTS['workload']})")
    sub.add_argument("--shape-order", type=int,
                     choices=GRID_CHOICES["shape_order"], default=None,
                     help="deposition shape order (uniform workload only — "
                          "the lwfa workload is fixed at order 1; "
                          "default: 1)")
    sub.add_argument("--n-cell", type=_int_list, default=None,
                     metavar="NX,NY,NZ",
                     help="grid cells per axis "
                          f"(defaults: {_family_defaults('n_cell')})")
    sub.add_argument("--tile-size", type=_int_list, default=None,
                     metavar="TX,TY,TZ",
                     help="particle tile size per axis "
                          f"(defaults: {_family_defaults('tile_size')})")
    sub.add_argument("--domains", type=_int_list, default=None,
                     metavar="PX,PY,PZ",
                     help="domain decomposition of the grid (repro.domain; "
                          "default: 1,1,1 = single domain).  Decomposed "
                          "runs are bitwise identical to single-domain "
                          "ones at a fixed shard count")
    sub.add_argument("--seed", type=_nonnegative_int,
                     default=GRID_DEFAULTS["seed"],
                     help="workload RNG seed "
                          f"(default: {GRID_DEFAULTS['seed']})")


def _add_report_arguments(sub: argparse.ArgumentParser, subject: str,
                          metrics: str, formats: Sequence[str]) -> None:
    """The telemetry and output options ``campaign`` and ``run`` share."""
    sub.add_argument("--trace", default=None, metavar="FILE",
                     help="record a Chrome trace_event timeline of the "
                          f"{subject} (repro.obs) and write it to FILE")
    sub.add_argument("--metrics", action="store_true",
                     help="collect telemetry counters (repro.obs); the "
                          f"output then embeds {metrics}")
    sub.add_argument("--format", choices=formats, default="table",
                     help="output format (default: table)")


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
    campaign.add_argument("--ppc", type=_int_list,
                          default=list(GRID_DEFAULTS["ppc"]),
                          metavar="N[,N...]",
                          help="comma-separated particles-per-cell scan "
                               f"(default: {_joined(GRID_DEFAULTS['ppc'])})")
    campaign.add_argument("--configurations", type=_comma_list,
                          default=list(GRID_DEFAULTS["configurations"]),
                          metavar="NAME[,NAME...]",
                          help='comma-separated configuration names '
                               '(default: '
                               f'"{_joined(GRID_DEFAULTS["configurations"])}")')
    campaign.add_argument("--list-configurations", action="store_true",
                          help="print the available configuration names "
                               "and exit")
    campaign.add_argument("--steps", type=int,
                          default=GRID_DEFAULTS["steps"],
                          help="measured steps per experiment "
                               f"(default: {GRID_DEFAULTS['steps']})")
    campaign.add_argument("--warmup-steps", type=int,
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
    _add_report_arguments(campaign, "campaign",
                          "the aggregated metrics of every cell",
                          ("table", "csv", "json"))
    campaign.set_defaults(func=cmd_campaign)

    run = subparsers.add_parser(
        "run",
        help="run one cell (a one-cell grid) as a repro.api.Session",
        description="Run one cell of a grid through the campaign's "
                    "runner (the repro.pipeline stage graph) and print "
                    "the per-stage wall-time breakdown.",
    )
    _add_grid_arguments(run)
    run.add_argument("--ppc", type=_positive_int, default=8,
                     help="particles per cell (default: 8)")
    run.add_argument("--configuration", default=ReferenceDeposition.name,
                     metavar="NAME",
                     help="the deposition configuration: one of "
                          "campaign's --configurations names "
                          "(default: %(default)s, the uninstrumented "
                          "reference deposit)")
    run.add_argument("--steps", type=_nonnegative_int, default=5,
                     help="steps to run (default: 5)")
    execution = ExecutionConfig()
    run.add_argument("--backend", choices=SUPPORTED_BACKENDS,
                     default=execution.backend,
                     help="tile execution backend (default: %(default)s)")
    run.add_argument("--shards", type=_positive_int,
                     default=execution.num_shards,
                     help="tile shards / workers per stage "
                          "(default: %(default)s)")
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
    run.add_argument("--health", action="store_true",
                     help="enable per-step physics-health probes (energy "
                          "drift, charge conservation, NaN/Inf guards)")
    _add_report_arguments(run, "run", "the registry's snapshot",
                          ("table", "json"))
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
    summarize.add_argument("file", help="Chrome trace JSON file, as "
                                        "written by --trace")
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
    """The :class:`repro.obs.ObsConfig` requested by the CLI flags, or
    None when they request no telemetry.

    ``trace`` controls whether the per-run telemetry records span events
    (the campaign command keeps cell tracing off — worker processes
    cannot ship event timelines back — and traces at the campaign level
    instead).
    """
    from repro.obs import ObsConfig

    health = bool(getattr(args, "health", False))
    if not (getattr(args, "metrics", False) or getattr(args, "trace", None)
            or health):
        return None
    return ObsConfig(enabled=True, trace=trace, health=health)


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


def cmd_campaign(args) -> int:
    """Entry point of the ``campaign`` subcommand."""
    from repro.analysis.cache import ResultCache
    from repro.analysis.campaign import REQUEST_KEYS, Campaign, expand_request
    from repro.analysis.tables import format_campaign_table
    from repro.baselines.configs import available_configurations

    if args.list_configurations:
        for name in available_configurations():
            print(name)
        return 0

    # the grid flags are the grid keys the job service takes, so the
    # sweep is accepted, rejected and hashed exactly as a submission
    request = {key: value for key, value in vars(args).items()
               if key in REQUEST_KEYS}
    request["scramble"] = not args.no_scramble
    try:
        specs = expand_request(request, observe=_observe_config(args))
    except ValueError as exc:
        # a usage-style error, not a traceback from inside the run
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cache_dir = args.cache_dir if args.cache_dir else default_cache_dir()
    if args.clear_cache:
        removed = ResultCache(cache_dir).clear()
        print(f"cleared {removed} cached file(s) from {cache_dir}",
              file=sys.stderr)
    cache = None if args.no_cache else ResultCache(cache_dir)

    # the campaign-level registry (disabled without --trace/--metrics);
    # cells record into their own per-run handles
    from repro.obs import Telemetry

    handle = Telemetry(_observe_config(args, trace=bool(args.trace)))
    outcome = Campaign(specs, cache=cache, jobs=args.jobs, obs=handle).run()
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
        print(json.dumps(outcome.to_json(), indent=2, sort_keys=True))
    elif args.format == "csv":
        buffer = io.StringIO()
        _render_csv(outcome, buffer)
        print(buffer.getvalue(), end="")
    else:
        print(format_campaign_table(outcome))
    return 0


def cmd_run(args) -> int:
    """Entry point of the ``run`` subcommand: a one-cell grid, with no
    warm-up and no scramble, run as a campaign cell is."""
    from repro.analysis.campaign import REQUEST_KEYS, expand_request, run_spec
    from repro.analysis.tables import format_run_table
    from repro.ckpt import SnapshotError

    request = {key: value for key, value in vars(args).items()
               if key in REQUEST_KEYS}
    request.update(configurations=[args.configuration], warmup_steps=0,
                   scramble=False)
    try:
        (spec,) = expand_request(
            request, observe=_observe_config(args, trace=bool(args.trace)),
            execution=ExecutionConfig(backend=args.backend,
                                      num_shards=args.shards))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_spec(spec, checkpoint_dir=args.checkpoint_dir,
                          checkpoint_every=args.checkpoint_every,
                          resume=args.resume, trace=args.trace,
                          record_energy=args.record_energy)
    except (OSError, SnapshotError) as exc:
        # a checkpoint directory or snapshot that does not fit
        print(f"error: {exc}", file=sys.stderr)
        return 2
    live = result.live
    if "resumed_from" in live:
        print("resumed from {} (step {})".format(*live.pop("resumed_from")),
              file=sys.stderr)
    if args.trace:
        print(f"trace written to {args.trace} "
              f"({live.pop('trace_events')} events)", file=sys.stderr)
    payload = {"workload": args.workload, "ppc": args.ppc,
               "steps": result.steps, "num_particles": result.num_particles,
               "backend": args.backend, "shards": args.shards,
               "domains": list(args.domains or (1, 1, 1)),
               "bucket_seconds": result.stage_seconds, **live}
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_run_table(payload, args.metrics))
    return 0


def cmd_serve(args) -> int:
    """Entry point of the ``serve`` subcommand."""
    from repro.serve import DEFAULT_ROOT, ServeConfig, run_server

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


def cmd_trace_summarize(args) -> int:
    """Entry point of the ``trace summarize`` subcommand."""
    from repro.obs import summarize_trace

    try:
        summary = summarize_trace(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"{summary['events']} events, max span depth "
          f"{summary['max_depth']}")
    if summary["spans"]:
        print("spans:")
        for name, row in summary["spans"].items():
            print(f"  {name:24s} x{row['count']:<6d} "
                  f"{row['total_us'] / 1000.0:10.3f} ms")
    if summary["counters"]:
        print("counters (last sample):")
        for series, values in summary["counters"].items():
            for name, value in sorted(values.items()):
                print(f"  {series}.{name:32s} {value:g}")
    if summary["instants"]:
        print("instant events:")
        for name, count in summary["instants"].items():
            print(f"  {name:32s} x{count}")
    return 0


def cmd_trace_validate(args) -> int:
    """Entry point of the ``trace validate`` subcommand."""
    from repro.obs import validate_chrome_trace

    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    errors = validate_chrome_trace(payload)
    if errors:
        for error in errors:
            print(f"invalid: {error}")
        return 1
    events = payload.get("traceEvents", [])
    print(f"OK: {len(events)} events conform to the trace_event schema")
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
