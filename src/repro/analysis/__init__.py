"""Post-emulation forensics (the recording → insight loop).

PoEm's headline features are real-time *recording* via client-side
parallel time-stamping (§4.1) and *post-emulation replay* from the SQL
database (§1, Table 1).  Replay scrubs the run visually and the stats
plane totals it coarsely — this package answers the questions neither
can: *what happened to packet 4821?*  *did client C's clock drift
corrupt the delay statistics?*

Everything here is **offline and dependency-free**: it reads a finished
recording (any :class:`~repro.core.recording.Recorder`, or a SQLite
database file by path) and never touches a live emulation.

Layers, bottom-up:

:class:`~repro.core.recording.RunDataset` (re-exported here)
    joins the recorder's four tables (packets, scene events, trace
    spans, sync samples) into one indexed snapshot — the one read path
    the run report (:func:`~repro.stats.report.build_report`) and this
    package share.
:mod:`~repro.analysis.drift`
    per-client clock audit: least-squares drift rate over the §4.1
    sync-sample history, stamp-correction for lineage.
:mod:`~repro.analysis.lineage`
    per-packet life story: origin stamp → receipt → decision →
    schedule → fire → send → delivery, skew-corrected.
:mod:`~repro.analysis.aggregates`
    windowed throughput/delay/jitter/loss per channel, loss split
    medium-vs-transport.
:mod:`~repro.analysis.anomalies`
    detectors with pluggable :class:`Thresholds` — lag spikes,
    timestamp inversions, drop storms, reordering, drift budget.
:mod:`~repro.analysis.report`
    ties it together: :func:`analyze` → :class:`AnalysisReport`, whose
    totals and fidelity verdict come from the run report, rendered as
    text, JSON, or a self-contained HTML page.
"""

from ..core.recording import RunDataset, load_dataset
from .aggregates import WindowStats, windowed_aggregates
from .anomalies import Anomaly, Thresholds, detect_anomalies
from .drift import ClockAudit, DriftEstimate, audit_clocks
from .lineage import LineageStage, PacketLineage, lineage
from .report import AnalysisReport, analyze, render_html, render_json, render_text

__all__ = [
    "RunDataset",
    "load_dataset",
    "DriftEstimate",
    "ClockAudit",
    "audit_clocks",
    "LineageStage",
    "PacketLineage",
    "lineage",
    "WindowStats",
    "windowed_aggregates",
    "Thresholds",
    "Anomaly",
    "detect_anomalies",
    "AnalysisReport",
    "analyze",
    "render_text",
    "render_json",
    "render_html",
]
