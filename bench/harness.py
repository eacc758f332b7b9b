"""Instrument parts shared by every workload: the contract, span
recording, run statistics, the result record and its provenance stamp.

Nothing here knows a workload.  A workload fills a :class:`Result`
(metrics with their clock, operations attempted/failed, exact facts such
as counters and state digests); :func:`finish` checks it against
``BENCHMARK.json`` and turns it into the record that is printed,
appended to the history and compared.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy

ROOT = Path(__file__).resolve().parent.parent
CONTRACT_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / "bench" / "out"
HISTORY_PATH = OUT_DIR / "history.jsonl"

#: the kinds of number a record holds: seconds of this Python code as
#: read off the clock, the same scaled to the machine's reference speed
#: (:class:`SpeedProbe`), LX2 seconds from ``repro.hardware.CostModel``,
#: and program counts/ratios of counts.  ``modelled`` and ``count``
#: repeat exactly for a given seed; the first two only within a bound.
CLOCKS = ("wall", "calibrated", "modelled", "count")

#: glibc malloc settings every run is made under (``__main__`` re-executes
#: itself with them; the served subprocess inherits them): never hand
#: freed memory back to the kernel.  On the virtual machines this runs on,
#: the first touch of a page the host has not backed yet costs tens of
#: microseconds, and numpy returns every array above 128 KiB on free — so
#: a step that allocates a gigabyte of temporaries took anything from
#: 0.8 to 7 s, at random.  With the heap retained the same step repeats
#: within a few per cent.  What this hides: a change that allocates less
#: shows as less CPU work only, not as fewer page faults.
ALLOCATOR_ENV = {
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
}


def load_contract() -> Dict[str, Any]:
    with open(CONTRACT_PATH, "r", encoding="utf-8") as stream:
        return json.load(stream)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


# ----------------------------------------------------------------------
# the machine's speed, now
# ----------------------------------------------------------------------

class SpeedProbe:
    """Scale factor from wall seconds to seconds at reference speed.

    The machines this runs on change speed by a factor of up to two,
    for seconds to minutes at a time, with nothing else running (a fixed
    pure-Python loop was timed at 0.105 to 0.232 s within one minute).
    Medians do not help when a whole run sits in a slow spell.  So a
    fixed piece of work is timed beside the measured operations, and
    each wall time is multiplied by ``REFERENCE / probe``.  The work is
    of the two kinds this code base does — many numpy calls on arrays of
    a few hundred elements, and streaming passes over arrays larger than
    the caches, both on preallocated inputs — and the probe is the
    geometric mean of the two timings.  Of the mixes tried (with an
    interpreter loop, each part alone, all three) it tracked the three
    simulation workloads best: over ten runs of 15 s each the spread of
    the median step went from 13-23 % raw to 2-5 %.
    """

    #: the probe's seconds on the sizing machine in its fast state, so
    #: that calibrated seconds read like wall seconds there
    REFERENCE = 3.0e-3
    #: a factor is reused for this long before the probe runs again
    MAX_AGE = 0.2

    def __init__(self) -> None:
        self._small = numpy.linspace(0.0, 1.0, 512)
        self._index = (numpy.arange(512) * 7) % 64
        self._a = numpy.linspace(0.0, 1.0, 2_000_000)
        self._b = self._a.copy()
        self._out = numpy.empty_like(self._a)
        self.measure()  # cold: first touch of the arrays
        self.measure()

    def measure(self) -> float:
        small, index = self._small, self._index
        start = time.perf_counter()
        for _ in range(300):
            x = small * small + small
            numpy.floor(x * 8.0).astype(numpy.int64)
            numpy.bincount(index, weights=x, minlength=64)
            x[index]
        middle = time.perf_counter()
        numpy.multiply(self._a, self._b, out=self._out)
        numpy.add(self._out, self._a, out=self._out)
        end = time.perf_counter()
        self._taken = end
        self._factor = self.REFERENCE / math.sqrt(
            (middle - start) * (end - middle))
        return self._factor

    def factor(self) -> float:
        """The current factor; call it outside any timed region."""
        if time.perf_counter() - self._taken > self.MAX_AGE:
            self.measure()
        return self._factor


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

@dataclass
class Span:
    name: str
    start: float
    end: float
    #: index of the enclosing span in the list, or None at the top
    parent: Optional[int]
    #: the step or job this span belongs to (one id per operation)
    op: Optional[int]
    #: seconds covered by direct child spans
    children: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.children


class Tracer:
    """In-memory begin/end event list for one thread of control.

    Events are appended as they happen (two list appends per span) and
    only folded into :class:`Span` objects, or exported, once the run is
    over — nothing is written while the clock is running.
    """

    def __init__(self) -> None:
        #: ``(phase, name, timestamp, op)`` with phase ``"B"`` or ``"E"``
        self.events: List[Tuple[str, str, float, Optional[int]]] = []
        #: id stamped on every event recorded from now on
        self.op: Optional[int] = None

    def begin(self, name: str) -> None:
        self.events.append(("B", name, time.perf_counter(), self.op))

    def end(self, name: str) -> None:
        self.events.append(("E", name, time.perf_counter(), self.op))

    def wrap(self, target: Any, method: str, name: str,
             observe: Optional[Callable] = None) -> None:
        """Time every call of ``target.method`` as a span called ``name``.

        The wrapper is installed on the *instance*, so calls the object
        makes on itself are seen too.  ``observe(args, result)`` runs
        after the span closed, for counts taken at the same boundary.
        """
        inner = getattr(target, method)

        def timed(*args, **kwargs):
            self.begin(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                self.end(name)
            if observe is not None:
                observe(args, result)
            return result

        setattr(target, method, timed)

    def spans(self) -> List[Span]:
        """Fold the event list into spans, in order of their start."""
        spans: List[Span] = []
        stack: List[int] = []
        for phase, name, ts, op in self.events:
            if phase == "B":
                spans.append(Span(name, ts, ts, stack[-1] if stack else None,
                                  op))
                stack.append(len(spans) - 1)
                continue
            span = spans[stack.pop()]
            if span.name != name:
                raise ValueError(f"span {name!r} closed while "
                                 f"{span.name!r} was open")
            span.end = ts
            if span.parent is not None:
                spans[span.parent].children += span.seconds
        if stack:
            raise ValueError(f"span {spans[stack[-1]].name!r} never closed")
        return spans

    def chrome_trace(self) -> Dict[str, Any]:
        """The events as a Chrome ``trace_event`` container — the format
        ``python -m repro trace validate`` checks."""
        if not self.events:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = self.events[0][2]
        return {
            "traceEvents": [
                {"name": name, "ph": phase, "ts": (ts - origin) * 1.0e6,
                 "pid": 1, "tid": 1, "cat": name.split(".")[0],
                 "args": {} if op is None else {"op": op}}
                for phase, name, ts, op in self.events
            ],
            "displayTimeUnit": "ms",
        }


def seconds_per_op(spans: Iterable[Span], ops: Sequence[int],
                   select: Callable[[Span], bool],
                   self_time: bool = False) -> List[float]:
    """Per operation, the summed (self) seconds of the selected spans.

    An operation in which no span was selected contributes ``0.0``: a
    layer that did nothing in a step took no time in it.
    """
    totals = {op: 0.0 for op in ops}
    for span in spans:
        if span.op in totals and select(span):
            totals[span.op] += (span.self_seconds if self_time
                                else span.seconds)
    return [totals[op] for op in ops]


# ----------------------------------------------------------------------
# the result of one run of one workload
# ----------------------------------------------------------------------

class RunFailed(Exception):
    """An operation the run cannot go on without has failed.  It is
    already counted in the result; the run stops and reports."""


class Result:
    """Metrics, operation accounting and exact facts of one run."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0
        #: one line per failed operation or gate
        self.failures: List[str] = []
        #: step/job counts, digests, counters — compared exactly
        self.facts: Dict[str, Any] = {}

    def timing(self, name: str, samples: Sequence[float],
               clock: str = "wall") -> float:
        """A timing: the median of ``samples`` (seconds), with quartiles
        and the sample count."""
        q1, median, q3 = quartiles(samples)
        self.metrics[name] = {"value": median, "clock": clock,
                              "n": len(samples), "q1": q1, "q3": q3}
        return median

    def value(self, name: str, value: float, clock: str,
              n: int = 1) -> float:
        """A metric that is one number (a ratio, a rate, a count)."""
        if clock not in CLOCKS:
            raise ValueError(f"unknown clock {clock!r}")
        self.metrics[name] = {"value": float(value), "clock": clock, "n": n}
        return value

    def operation(self, ok: bool, what: str = "") -> bool:
        """Account one attempted operation (a step, a job, a gate)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def gate(self, name: str, ok: bool, detail: str = "") -> bool:
        return self.operation(ok, f"gate {name}: {detail}".rstrip(": "))


def finish(result: Result, *, workload: str, seed: int, seconds: float,
           trace: bool, smoke: bool, stamp: Dict[str, Any]
           ) -> Dict[str, Any]:
    """Check a result against the contract and make its record.

    The contract lists, per pass, the metrics every workload reports.
    One the workload did not set is a layer it never entered: it is
    filled in as ``0`` with ``n = 0``.  A metric the contract does not
    know is a schema error — the benchmark and ``BENCHMARK.json`` must
    change together.
    """
    contract = load_contract()
    declared = contract["per_layer" if trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    unknown = sorted(set(result.metrics) - set(units))
    if unknown:
        raise ValueError(
            f"{workload}: metrics {unknown} are not declared in "
            f"{CONTRACT_PATH.name} for the "
            f"{'traced' if trace else 'untraced'} pass")
    metrics = {}
    for name, unit in units.items():
        entry = dict(result.metrics.get(
            name, {"value": 0.0, "clock": "count", "n": 0}))
        entry["unit"] = unit
        metrics[name] = entry
    missing = [name for name, entry in metrics.items() if entry["n"] == 0]
    if missing and not trace and not result.failed:
        raise ValueError(
            f"{workload}: end-to-end metrics {missing} not measured")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "stamp": stamp,
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures,
        "facts": result.facts,
        "metrics": metrics,
    }


def driver_line(record: Dict[str, Any]) -> str:
    """The one-line JSON object the driver reads off standard output."""
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in record["metrics"].items()},
    })


def format_record(record: Dict[str, Any]) -> str:
    """Every metric by name with value, unit, clock and sample count."""
    lines = [
        f"== {record['workload']}  seed={record['seed']}  "
        f"seconds={record['seconds']:g}  "
        f"{'traced' if record['trace'] else 'untraced'} pass"
        f"{'  (smoke)' if record['smoke'] else ''}",
    ]
    for name, entry in record["metrics"].items():
        spread = ""
        if "q1" in entry:
            spread = f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}]"
        clock = entry["clock"] if entry["n"] else "-"
        lines.append(f"  {name:42s} {entry['value']:14.6g} "
                     f"{entry['unit']:6s} {clock:8s} n={entry['n']}{spread}")
    for key, value in record["facts"].items():
        lines.append(f"  fact {key} = {value}")
    lines.append(f"  operations: {record['attempted']} attempted, "
                 f"{record['failed']} failed")
    for failure in record["failures"]:
        lines.append(f"  FAILED {failure}")
    return "\n".join(lines)


def write_trace(result: Result, tracer: Tracer, workload: str) -> None:
    """Write ``bench/out/trace-<workload>.json``; gate on it passing the
    check ``python -m repro trace validate`` makes."""
    from repro.obs import validate_chrome_trace

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    payload = tracer.chrome_trace()
    with open(OUT_DIR / f"trace-{workload}.json", "w",
              encoding="utf-8") as out:
        json.dump(payload, out)
    errors = validate_chrome_trace(payload)
    result.gate("trace_validates", not errors, "; ".join(errors[:3]))


@contextlib.contextmanager
def scratch_directory(prefix: str) -> Iterator[str]:
    """A temporary directory under ``bench/out``, removed afterwards: a
    run reads and writes only inside its checkout."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    directory = tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR)
    try:
        yield directory
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def append_history(record: Dict[str, Any], path: Path) -> None:
    """Append one record as a JSON line; history is never rewritten."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as stream:
        stream.write(json.dumps(record, sort_keys=True) + "\n")


def load_records(path: str) -> List[Dict[str, Any]]:
    with open(path, "r", encoding="utf-8") as stream:
        return [json.loads(line) for line in stream if line.strip()]


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------

def environment_stamp() -> Dict[str, Any]:
    """Where and on what a record was taken."""
    from repro.backend import BackendConfig, activate

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # an exported checkout is not a repository
    try:
        import numba
        numba_version: Optional[str] = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_version,
        "kernel_tier": activate(BackendConfig()).kernel_tier,
        "allocator": {name: os.environ.get(name) for name in ALLOCATOR_ENV},
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def state_digest(session: Any) -> str:
    """sha256 over every field array and the particle SoA of a session.

    Taken through ``repro.ckpt.capture_state`` — the inventory the
    bitwise-resume contract is pinned on — so a decomposed run digests
    its assembled frame and equals the single-domain digest.
    """
    from repro.ckpt import capture_state

    _meta, arrays = capture_state(session.simulation)
    digest = hashlib.sha256()
    for name in sorted(arrays):
        digest.update(name.encode("ascii"))
        digest.update(arrays[name].tobytes())
    return digest.hexdigest()
