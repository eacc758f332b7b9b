"""Analysis utilities: metrics, runners, campaigns and table formatters."""

from repro.analysis.cache import CacheStats, ResultCache
from repro.analysis.campaign import (
    Campaign,
    CampaignEntry,
    CampaignResult,
    ExperimentSpec,
    run_spec,
)
from repro.analysis.metrics import (
    ExperimentResult,
    particles_per_second,
    peak_efficiency_percent,
    speedup,
)
from repro.analysis.runner import (
    run_deposition_experiment,
    run_simulation_experiment,
    sweep_configurations,
)
from repro.analysis.tables import (
    format_breakdown_table,
    format_campaign_table,
    format_efficiency_table,
    format_kernel_table,
    format_series_table,
)

__all__ = [
    "Campaign",
    "CampaignEntry",
    "CampaignResult",
    "CacheStats",
    "ExperimentResult",
    "ExperimentSpec",
    "ResultCache",
    "run_spec",
    "speedup",
    "particles_per_second",
    "peak_efficiency_percent",
    "run_deposition_experiment",
    "run_simulation_experiment",
    "sweep_configurations",
    "format_campaign_table",
    "format_kernel_table",
    "format_efficiency_table",
    "format_breakdown_table",
    "format_series_table",
]
