"""``python -m bench compare BASE CHANGE``: did anything move?

One row per workload and end-to-end metric, judged by the rules of the
``choosing-metrics`` guide (sections 6.5 and 8):

``regressed``   the change's median is worse than the base's by more
                than the metric's bound in ``BENCHMARK.json``;
``unresolved``  the run-to-run spread (inter-quartile distance over the
                median, either side) is wider than the bound, so neither
                "unchanged" nor "regressed" can be read off the medians —
                unless every run of the change beats every run of the
                base, which is ``improved``;
``improved``    the change wins at least nine tenths of the pairs (ties
                count for neither side) and the medians differ by more
                than the base's own inter-quartile distance;
``unchanged``   otherwise.

Below the table: everything that must repeat *exactly* for a given
workload and seed — state digests, modelled numbers, counters — and
every record with failed operations.  Every ratio names its base.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Sequence

from bench.harness import load_contract, load_records, quartiles


def verdict(base: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_median, a_q3 = quartiles(base)
    b_q1, b_median, b_q3 = quartiles(change)
    spread = max((a_q3 - a_q1) / a_median, (b_q3 - b_q1) / b_median)
    worse_by = sign * (b_median - a_median) / a_median
    if spread > bound:
        every_run_better = (max(sign * b for b in change)
                            < min(sign * a for a in base))
        return "improved" if every_run_better else "unresolved"
    if worse_by > bound:
        return "regressed"
    pairs = list(zip(base, change))
    wins = sum(sign * b < sign * a for a, b in pairs)
    ties = sum(a == b for a, b in pairs)
    if (worse_by < 0.0 and len(pairs) > ties
            and wins >= 0.9 * (len(pairs) - ties)
            and abs(b_median - a_median) > a_q3 - a_q1):
        return "improved"
    return "unchanged"


def summary(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def by_workload(records: List[Dict[str, Any]], trace: int
                ) -> Dict[str, List[Dict[str, Any]]]:
    groups: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for record in records:
        if record["trace"] == trace and not record["smoke"]:
            groups[record["workload"]].append(record)
    for group in groups.values():
        group.sort(key=lambda record: record["seed"])
    return groups


def exact_items(record: Dict[str, Any]) -> Dict[str, Any]:
    """What must repeat exactly for the record's workload and seed.

    Only a record taken over counted steps promises that; the length of
    ``serve-grid``'s phases depends on the time box, and so do its counts.
    """
    if "counted_steps" not in record["facts"]:
        return {}
    items = {f"fact {key}": value for key, value in record["facts"].items()
             if key in ("digest", "counters", "counted_steps")}
    for name, entry in record["metrics"].items():
        if entry["n"] and entry["clock"] in ("modelled", "count"):
            items[name] = entry["value"]
    return items


def compare_files(base_path: str, change_path: str) -> int:
    contract = load_contract()
    base_records = load_records(base_path)
    change_records = load_records(change_path)
    regressed = 0

    print(f"base   A = {base_path}\nchange B = {change_path}")
    print(f"{'workload':13s} {'metric':11s} {'A median [q1, q3] n':38s} "
          f"{'B median [q1, q3] n':38s} {'B/A':>7s} {'bound':>6s}  verdict")
    base = by_workload(base_records, trace=0)
    change = by_workload(change_records, trace=0)
    few = False
    for workload in (entry["name"] for entry in contract["workloads"]):
        a_runs, b_runs = base.get(workload, []), change.get(workload, [])
        if not a_runs or not b_runs:
            print(f"{workload:13s} missing on one side "
                  f"(A {len(a_runs)} runs, B {len(b_runs)} runs)")
            continue
        few = few or min(len(a_runs), len(b_runs)) < 10
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name]["value"] for run in a_runs]
            b = [run["metrics"][name]["value"] for run in b_runs]
            word = verdict(a, b, metric["better"], metric["bound"])
            regressed += word == "regressed"
            ratio = quartiles(b)[1] / quartiles(a)[1]
            print(f"{workload:13s} {name:11s} {summary(a):38s} "
                  f"{summary(b):38s} "
                  f"{ratio:7.3f} {metric['bound']:6.2f}  {word}  "
                  f"({metric['unit']}, {metric['better']} is better; "
                  f"ratio over A's median)")
    if few:
        print("note: fewer than ten runs on a side — the guide asks for "
              "ten pairs before a gain is claimed")

    print("\nexact for a given workload and seed "
          "(digests, modelled numbers, counters):")
    differences = 0
    checked = 0
    for trace in (0, 1):
        a_groups = by_workload(base_records, trace)
        b_groups = by_workload(change_records, trace)
        for workload, a_runs in a_groups.items():
            b_by_seed = {run["seed"]: run
                         for run in b_groups.get(workload, [])}
            for a_run in a_runs:
                b_run = b_by_seed.get(a_run["seed"])
                if b_run is None:
                    continue
                a_items, b_items = exact_items(a_run), exact_items(b_run)
                for key in sorted(set(a_items) | set(b_items)):
                    checked += 1
                    if a_items.get(key) != b_items.get(key):
                        differences += 1
                        print(f"  CHANGED {workload} seed {a_run['seed']} "
                              f"{key}: A {a_items.get(key)!r} -> "
                              f"B {b_items.get(key)!r}")
    print(f"  {checked} items compared on matching seeds, "
          f"{differences} differ")

    for label, records in (("A", base_records), ("B", change_records)):
        attempted = sum(record["attempted"] for record in records)
        failed = sum(record["failed"] for record in records)
        print(f"operations {label}: {failed} failed of {attempted} "
              f"attempted (failed share {failed / max(attempted, 1):.6f})")
        for record in records:
            for failure in record["failures"]:
                print(f"  {label} {record['workload']} seed "
                      f"{record['seed']}: {failure}")
    print(f"\n{regressed} rows regressed")
    return 1 if regressed else 0
