"""Metrics: counters, time series, statistics, collection and reporting."""

from .collector import MetricsCollector, RunResult
from .counters import MessageCounters, TaskCounters
from .report import describe_result, figure_table, format_series, format_table
from .series import TimeSeries
from .stats import (
    StreamingMean,
    SummaryStats,
    batch_means_ci,
    proportion_ci,
    summarize,
    two_proportion_z,
)

__all__ = [
    "MetricsCollector",
    "RunResult",
    "MessageCounters",
    "TaskCounters",
    "describe_result",
    "figure_table",
    "format_series",
    "format_table",
    "TimeSeries",
    "StreamingMean",
    "SummaryStats",
    "batch_means_ci",
    "proportion_ci",
    "summarize",
    "two_proportion_z",
]
