"""Trace export, validation and summarisation.

Two export formats cover the two consumers:

* **JSONL** (:func:`export_jsonl`) — one raw telemetry event per line,
  the lossless machine format for ad-hoc scripting;
* **Chrome ``trace_event`` JSON** (:func:`export_chrome_trace`) — the
  ``{"traceEvents": [...]}`` container understood by Perfetto and
  ``chrome://tracing``: ``B``/``E`` duration pairs for spans, ``C`` for
  counter samples, ``i`` for instants, with microsecond timestamps
  rebased to the first event.

:func:`validate_chrome_trace` checks an exported payload against
:data:`TRACE_SCHEMA` with a hand-rolled walker (no ``jsonschema``
dependency) plus the span-nesting discipline Perfetto assumes (every
``E`` closes the innermost open ``B`` on its thread, nothing left open);
:func:`summarize_trace` folds either format into per-span totals for
``python -m repro trace summarize``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.obs.registry import Telemetry

__all__ = [
    "TRACE_SCHEMA",
    "chrome_trace_events",
    "export_chrome_trace",
    "export_jsonl",
    "load_trace_events",
    "summarize_trace",
    "validate_chrome_trace",
]

#: JSON-Schema-shaped contract for the exported Chrome trace container.
#: The CI observability job validates every exported artifact against it
#: (via :func:`validate_chrome_trace`; the walker below understands the
#: subset of keywords used here).
TRACE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["traceEvents"],
    "properties": {
        "traceEvents": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "ph", "ts", "pid", "tid"],
                "properties": {
                    "name": {"type": "string"},
                    "ph": {"enum": ["B", "E", "C", "i"]},
                    "ts": {"type": "number"},
                    "pid": {"type": "integer"},
                    "tid": {"type": "integer"},
                    "cat": {"type": "string"},
                    "args": {"type": "object"},
                    "s": {"enum": ["t", "p", "g"]},
                },
            },
        },
        "displayTimeUnit": {"type": "string"},
    },
}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
}


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------

def chrome_trace_events(handle: Telemetry) -> List[Dict[str, Any]]:
    """The telemetry's events in Chrome ``trace_event`` form.

    Timestamps are microseconds rebased to the first event, so the trace
    always starts at ``ts == 0``; everything runs on ``pid 1 / tid 1``
    (the library is single-process per telemetry registry).
    """
    events = handle.events
    if not events:
        return []
    origin = events[0]["ts"]
    out: List[Dict[str, Any]] = []
    for event in events:
        ts = (event["ts"] - origin) * 1.0e6
        record: Dict[str, Any] = {
            "name": event["name"],
            "ph": {"B": "B", "E": "E", "C": "C", "I": "i"}[event["type"]],
            "ts": ts,
            "pid": 1,
            "tid": 1,
        }
        if event.get("cat"):
            record["cat"] = event["cat"]
        if event.get("args") is not None:
            record["args"] = event["args"]
        if event["type"] == "I":
            record["s"] = "t"
        out.append(record)
    return out


def export_chrome_trace(handle: Telemetry, path: str) -> str:
    """Write the Chrome-trace JSON container to ``path``; returns it."""
    payload = {
        "traceEvents": chrome_trace_events(handle),
        "displayTimeUnit": "ms",
    }
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=1, sort_keys=False)
        stream.write("\n")
    return path


def export_jsonl(handle: Telemetry, path: str) -> str:
    """Write one raw telemetry event per line to ``path``; returns it."""
    with open(path, "w", encoding="utf-8") as stream:
        for event in handle.events:
            stream.write(json.dumps(event, sort_keys=False))
            stream.write("\n")
    return path


# ----------------------------------------------------------------------
# load + validate
# ----------------------------------------------------------------------

def load_trace_events(path: str) -> List[Dict[str, Any]]:
    """Load a trace file in either export format, as Chrome events.

    A leading ``{`` means the Chrome container; anything else is parsed
    as JSONL of raw telemetry events and converted via
    :func:`chrome_trace_events` so both feed the same summariser.
    """
    with open(path, "r", encoding="utf-8") as stream:
        text = stream.read()
    # both formats open with "{" (JSONL lines are event objects), so the
    # discriminator is whether the whole file parses as one document
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, dict):
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError(f"{path}: no traceEvents array")
        return events
    raw = [json.loads(line) for line in text.splitlines() if line.strip()]
    shim = Telemetry.__new__(Telemetry)
    shim.events = raw
    return chrome_trace_events(shim)


def _walk_schema(value: Any, schema: Dict[str, Any], where: str,
                 errors: List[str]) -> None:
    if "enum" in schema:
        if value not in schema["enum"]:
            errors.append(f"{where}: {value!r} not one of {schema['enum']}")
        return
    expected = schema.get("type")
    if expected is not None:
        check = _TYPE_CHECKS[expected]
        if not check(value):
            errors.append(f"{where}: expected {expected}, "
                          f"got {type(value).__name__}")
            return
    if expected == "object":
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{where}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _walk_schema(value[key], sub, f"{where}.{key}", errors)
    elif expected == "array":
        items = schema.get("items")
        if items is not None:
            for index, element in enumerate(value):
                _walk_schema(element, items, f"{where}[{index}]", errors)


def validate_chrome_trace(payload: Dict[str, Any]) -> List[str]:
    """Validate an exported container; returns a list of problems.

    Runs the structural schema walk, then the span-nesting discipline:
    every ``E`` must close the innermost open ``B`` and no span may be
    left open at the end.  An empty list means the trace is valid.
    """
    errors: List[str] = []
    _walk_schema(payload, TRACE_SCHEMA, "$", errors)
    if errors:
        return errors
    stack: List[str] = []
    last_ts = None
    for index, event in enumerate(payload["traceEvents"]):
        if last_ts is not None and event["ts"] < last_ts:
            errors.append(f"$.traceEvents[{index}]: timestamps not "
                          f"monotonic ({event['ts']} < {last_ts})")
        last_ts = event["ts"]
        if event["ph"] == "B":
            stack.append(event["name"])
        elif event["ph"] == "E":
            if not stack:
                errors.append(f"$.traceEvents[{index}]: E "
                              f"{event['name']!r} with no open span")
            elif stack[-1] != event["name"]:
                errors.append(f"$.traceEvents[{index}]: E "
                              f"{event['name']!r} closes open span "
                              f"{stack[-1]!r} (bad nesting)")
                stack.pop()
            else:
                stack.pop()
    for name in stack:
        errors.append(f"$: span {name!r} never closed")
    return errors


# ----------------------------------------------------------------------
# summarise
# ----------------------------------------------------------------------

def summarize_trace(path: str) -> Dict[str, Any]:
    """Fold a trace file into per-span totals and counter finals.

    Returns ``{"events", "max_depth", "spans", "counters", "instants"}``
    where ``spans`` maps span name to ``{"count", "total_us"}`` in
    first-seen order, ``counters`` maps counter-series name to its last
    sampled values, and ``instants`` counts instant events by name.
    """
    events = load_trace_events(path)
    spans: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, Dict[str, float]] = {}
    instants: Dict[str, int] = {}
    stack: List[Dict[str, Any]] = []
    max_depth = 0
    for event in events:
        ph = event.get("ph")
        if ph == "B":
            stack.append(event)
            max_depth = max(max_depth, len(stack))
        elif ph == "E" and stack:
            begin = stack.pop()
            entry = spans.setdefault(begin["name"],
                                     {"count": 0, "total_us": 0.0})
            entry["count"] += 1
            entry["total_us"] += float(event["ts"]) - float(begin["ts"])
        elif ph == "C":
            counters[event["name"]] = dict(event.get("args") or {})
        elif ph == "i":
            instants[event["name"]] = instants.get(event["name"], 0) + 1
    return {
        "events": len(events),
        "max_depth": max_depth,
        "spans": spans,
        "counters": counters,
        "instants": instants,
    }
