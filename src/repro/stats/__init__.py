"""Statistics: the run report, traffic metrics and the Fig 10 curves."""

from .metrics import (
    LatencyStats,
    jitter_stats,
    TimeSeries,
    latency_stats,
    loss_rate_from_logs,
    stamp_errors,
)
from .export import (
    export_jsonl,
    export_metrics_json,
    export_packets_csv,
    export_scene_csv,
)
from .report import (
    FlowStats,
    NodeActivity,
    RunReport,
    build_report,
    format_health,
    format_report,
)
from .theory import RelayScenario, fluid_stamp_lag, nonrealtime_curve

__all__ = [
    "TimeSeries",
    "LatencyStats",
    "loss_rate_from_logs",
    "latency_stats",
    "stamp_errors",
    "RelayScenario",
    "fluid_stamp_lag",
    "nonrealtime_curve",
    "jitter_stats",
    "RunReport",
    "FlowStats",
    "build_report",
    "format_report",
    "NodeActivity",
    "export_packets_csv",
    "export_scene_csv",
    "export_jsonl",
    "export_metrics_json",
    "format_health",
]
