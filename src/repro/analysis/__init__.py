"""Analysis: lifetime extrapolation, comparisons, and table rendering."""

from repro.analysis.lifetime import (
    LifetimeEstimate,
    lifetime_for_policies,
    season_day_classes,
)
from repro.analysis.prediction import (
    LifetimePredictor,
    LifetimePrediction,
    predict_by_damage,
    predict_by_throughput,
)
from repro.analysis.reporting import format_table, percent_change, ratio

__all__ = [
    "LifetimeEstimate",
    "lifetime_for_policies",
    "season_day_classes",
    "LifetimePredictor",
    "LifetimePrediction",
    "predict_by_damage",
    "predict_by_throughput",
    "format_table",
    "percent_change",
    "ratio",
]
