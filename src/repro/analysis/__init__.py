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
    speedup,
)
from repro.analysis.runner import run_deposition_experiment
from repro.analysis.tables import format_campaign_table

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
    "run_deposition_experiment",
    "format_campaign_table",
]
