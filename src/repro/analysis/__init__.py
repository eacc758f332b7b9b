"""Analysis utilities: metrics, the cell runner, campaigns and tables."""

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
    "format_campaign_table",
]
