"""Evaluation analyses: one module per paper section (§6-§8)."""

from repro.analysis.economics import CpmModel, RevenueReport, revenue_of_visit, revenue_report
from repro.analysis.infrastructure import AsRow, ServerStats, as_table, server_statistics
from repro.analysis.report import format_pct, render_boxplot_row, render_histogram, render_table
from repro.analysis.sensitivity import (
    HttpsPoint,
    ThresholdPoint,
    ghostery_coverage_sweep,
    https_sensitivity,
    threshold_sweep,
)
from repro.analysis.rtb import HandshakeGapAnalysis, handshake_gaps, rtb_host_contributions
from repro.analysis.traffic import (
    ContentTypeRow,
    SizeDistribution,
    TimeSeries,
    TrafficSummary,
    ad_timeseries,
    content_type_table,
    object_size_distributions,
    traffic_summary,
)
from repro.analysis.usage import (
    EcdfSeries,
    HeatmapData,
    ad_ratio_ecdf,
    request_heatmap,
    usage_table,
)
from repro.analysis.whitelist import (
    DomainWhitelistRow,
    WhitelistSummary,
    adtech_whitelist_table,
    publisher_whitelist_table,
    whitelist_summary,
)

__all__ = [
    "CpmModel",
    "RevenueReport",
    "revenue_of_visit",
    "revenue_report",
    "HttpsPoint",
    "ThresholdPoint",
    "ghostery_coverage_sweep",
    "https_sensitivity",
    "threshold_sweep",
    "AsRow",
    "ServerStats",
    "as_table",
    "server_statistics",
    "format_pct",
    "render_boxplot_row",
    "render_histogram",
    "render_table",
    "HandshakeGapAnalysis",
    "handshake_gaps",
    "rtb_host_contributions",
    "ContentTypeRow",
    "SizeDistribution",
    "TimeSeries",
    "TrafficSummary",
    "ad_timeseries",
    "content_type_table",
    "object_size_distributions",
    "traffic_summary",
    "EcdfSeries",
    "HeatmapData",
    "ad_ratio_ecdf",
    "request_heatmap",
    "usage_table",
    "DomainWhitelistRow",
    "WhitelistSummary",
    "adtech_whitelist_table",
    "publisher_whitelist_table",
    "whitelist_summary",
]
