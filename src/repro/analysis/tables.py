"""Plain-text tables: the campaign and run CLI renderings, the examples'.

The paper's own tables are not rendered here: their numbers are held
against the model in the test ledger ``tests/test_paper_ledger.py``.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Fixed-width ASCII table, right-aligned.

    Each column is as wide as the widest of its header and its formatted
    cells (at least 12 characters), so every row's columns line up.
    """
    lines = [[str(h) for h in headers]]
    lines += [[_format_cell(v) for v in row] for row in rows]
    widths = [12] * len(headers)
    for line in lines:
        for i, text in enumerate(line[:len(widths)]):
            widths[i] = max(widths[i], len(text))
    lines.insert(1, ["-" * w for w in widths])
    return "\n".join("  ".join(text.rjust(w) for text, w in zip(line, widths))
                     for line in lines)


def campaign_rows(campaign_result) -> list:
    """Flat dict rows for a :class:`~repro.analysis.campaign.CampaignResult`.

    One row per entry, in spec order: workload identity, the
    :meth:`ExperimentResult.as_row` columns and the cache provenance.
    Shared by the CSV and table renderings of the campaign CLI.
    """
    rows = []
    for entry in campaign_result:
        row = {"workload": entry.spec.label()}
        row.update(entry.result.as_row())
        row["cached"] = entry.cache_hit
        rows.append(row)
    return rows


def format_campaign_table(campaign_result) -> str:
    """Campaign results as a fixed-width table plus a cache summary line."""
    headers = ("Workload", "Configuration", "Total (s)", "Preproc. (s)",
               "Compute (s)", "Sort (s)", "Throughput (p/s)", "Cached")
    rows = [
        (entry.spec.label(), entry.spec.configuration,
         entry.result.timing.total, entry.result.timing.preprocess,
         entry.result.timing.compute, entry.result.timing.sort,
         entry.result.throughput, "hit" if entry.cache_hit else "miss")
        for entry in campaign_result
    ]
    lines = [format_table(headers, rows)]
    stats = campaign_result.cache_stats
    if stats is not None:
        lines.append(
            f"cache: {stats.hits} hits, {stats.misses} misses, "
            f"{stats.invalidations} invalidations "
            f"({100.0 * stats.hit_ratio:.0f}% hit ratio)"
        )
    if campaign_result.degraded:
        lines.append("note: process pool unavailable; misses ran serially")
    return "\n".join(lines)


def format_run_table(payload, metrics: bool) -> str:
    """A ``repro run`` payload as text: the run, pipeline and executor,
    the per-stage wall time, the energy drift when recorded and, with
    ``metrics``, the telemetry counters."""
    lines = [f"workload={payload['workload']} ppc={payload['ppc']} "
             f"steps={payload['steps']} "
             f"particles={payload['num_particles']}",
             f"pipeline: {' -> '.join(payload['stages'])}",
             f"executor: {payload['backend']} x{payload['shards']}, "
             f"domains={tuple(payload['domains'])}",
             "per-stage wall time:"]
    total = sum(payload["stage_seconds"].values()) or 1.0
    lines += [f"  {stage:16s} {seconds:9.4f} s  "
              f"{100.0 * seconds / total:5.1f} %"
              for stage, seconds in payload["stage_seconds"].items()]
    if "relative_energy_drift" in payload:
        lines.append("relative energy drift: "
                     f"{payload['relative_energy_drift']:.3e}")
    if metrics and payload.get("metrics"):
        lines.append("telemetry counters:")
        lines += [f"  {name:32s} {value:g}"
                  for name, value in payload["metrics"].items()]
    return "\n".join(lines)
