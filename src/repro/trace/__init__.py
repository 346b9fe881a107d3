"""RBN trace generation & capture substrate.

Population model (households/NAT/devices), diurnal activity, the trace
generator driving browser emulators over the synthetic web, capture
semantics (port-based HTTP visibility, TLS connection records, ABP
server detection).
"""

from repro.trace.activity import activity_rate, diurnal_rate, weekly_factor
from repro.trace.capture import (
    CaptureStats,
    abp_server_ips,
    capture_stats,
    easylist_download_clients,
)
from repro.trace.corruption import CorruptionConfig, CorruptionStats, TraceCorruptor
from repro.trace.generator import (
    RBNTraceConfig,
    RBNTraceGenerator,
    generate_trace,
    rbn1_config,
    rbn2_config,
)
from repro.trace.population import Device, Household, PopulationConfig, generate_population
from repro.trace.records import (
    GroundTruth,
    RttModel,
    TlsConnectionRecord,
    TraceRecords,
    render_visit,
)

__all__ = [
    "activity_rate",
    "diurnal_rate",
    "weekly_factor",
    "CaptureStats",
    "abp_server_ips",
    "capture_stats",
    "easylist_download_clients",
    "CorruptionConfig",
    "CorruptionStats",
    "TraceCorruptor",
    "RBNTraceConfig",
    "RBNTraceGenerator",
    "generate_trace",
    "rbn1_config",
    "rbn2_config",
    "Device",
    "Household",
    "PopulationConfig",
    "generate_population",
    "GroundTruth",
    "RttModel",
    "TlsConnectionRecord",
    "TraceRecords",
    "render_visit",
]
