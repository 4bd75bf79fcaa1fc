"""The forensics report: one call from recording to rendered insight.

:func:`analyze` loads a recording (recorder instance or SQLite path),
takes its totals and fidelity verdict from the run report
(:func:`~repro.stats.report.build_report`), runs the clock audit, the
windowed aggregates, the anomaly catalog, and resolves sample
lineages; the resulting :class:`AnalysisReport` renders
as plain text (operator terminal), JSON (machines), or a dependency-free
single-file HTML page (CI artifact, ``/report`` endpoint).
"""

from __future__ import annotations

import html as _html
import itertools
import json
from dataclasses import dataclass, field
from typing import Optional, Union

from ..core.recording import Recorder, RunDataset, load_dataset
from ..obs import flightrec
from ..stats.report import build_report, recorded_lag_budget
from .aggregates import WindowStats, windowed_aggregates
from .anomalies import Anomaly, Thresholds, detect_anomalies
from .drift import ClockAudit, audit_clocks
from .lineage import PacketLineage, format_lineage, lineage

__all__ = [
    "AnalysisReport",
    "analyze",
    "render_text",
    "render_json",
    "render_html",
]


@dataclass
class AnalysisReport:
    """Everything :func:`analyze` derived from one recording."""

    dataset: RunDataset
    thresholds: Thresholds
    start: float
    end: float
    total: int
    delivered: int
    medium_drops: int
    transport_drops: int
    drops_by_reason: dict[str, int]
    run_summary: Optional[dict]
    summary_consistent: Optional[bool]
    """Recorded run-summary totals == recomputed totals (None when the
    run has no summary — e.g. the server did not shut down cleanly)."""

    audit: ClockAudit
    aggregates: list[WindowStats]
    anomalies: list[Anomaly]
    lineages: list[PacketLineage] = field(default_factory=list)
    crashes: list[dict] = field(default_factory=list)
    """One entry per ``last-crash`` finding (a recorded ``worker-crash``
    event of a sharded run): time, worker index, failure reason, and the
    flight-recorder artifact paths the parent managed to dump."""

    fidelity: dict = field(default_factory=dict)
    """Validity envelope: ``verdict`` (``real-time``/``degraded``/
    ``overloaded``), deadline buckets, shed count, and the degraded
    intervals the overload controller recorded."""

    @property
    def duration(self) -> float:
        return max(self.end - self.start, 0.0)

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.total if self.total else 0.0

    def as_dict(self) -> dict:
        return {
            "run": {
                "start": self.start,
                "end": self.end,
                "duration": self.duration,
                "total": self.total,
                "delivered": self.delivered,
                "delivery_ratio": self.delivery_ratio,
                "medium_drops": self.medium_drops,
                "transport_drops": self.transport_drops,
                "drops_by_reason": dict(self.drops_by_reason),
                "sync_samples": len(self.dataset.sync_samples),
                "trace_spans": len(self.dataset.spans),
                "scene_events": len(self.dataset.scene_events),
                "run_summary": self.run_summary,
                "summary_consistent": self.summary_consistent,
            },
            "fidelity": dict(self.fidelity),
            "clocks": self.audit.as_dict(),
            "aggregates": [w.as_dict() for w in self.aggregates],
            "anomalies": [a.as_dict() for a in self.anomalies],
            "lineages": [l.as_dict() for l in self.lineages],
            "crashes": list(self.crashes),
        }


def _pick_lineage_records(dataset: RunDataset, count: int) -> list[int]:
    """Sample packets worth narrating: traced delivered ones first."""
    picked: list[int] = []
    delivered = dataset.delivered
    traced = (r for r in delivered if dataset.spans_for(r))
    for record in itertools.chain(traced, delivered, dataset.drops):
        if len(picked) >= count:
            break
        if record.record_id not in picked:
            picked.append(record.record_id)
    return picked


def analyze(
    source: Union[str, Recorder, RunDataset],
    *,
    thresholds: Optional[Thresholds] = None,
    lineage_samples: int = 1,
    lineage_records: Optional[list[int]] = None,
) -> AnalysisReport:
    """Run the full forensics pass over one recording."""
    dataset = load_dataset(source)
    if thresholds is None:
        thresholds = Thresholds(lag_budget=recorded_lag_budget(dataset))
    run = build_report(dataset, top_flows=0, lag_budget=thresholds.lag_budget)
    audit = audit_clocks(dataset)
    start, end = dataset.time_range()
    summary = dataset.run_summary
    consistent: Optional[bool] = None
    if summary is not None:
        consistent = (
            summary.get("forwarded") == run.delivered
            and summary.get("dropped") == run.dropped
        )
    record_ids = (
        list(lineage_records)
        if lineage_records is not None
        else _pick_lineage_records(dataset, lineage_samples)
    )
    lineages = [
        lineage(dataset, rid, audit=audit) for rid in record_ids
    ]
    aggregates = windowed_aggregates(dataset, window=thresholds.window)
    anomalies = detect_anomalies(
        dataset, thresholds, audit=audit, aggregates=aggregates
    )
    intervals = run.overload_intervals
    fidelity = {
        "verdict": run.fidelity,
        "lag_budget": run.lag_budget,
        "on_time": run.deadline_on_time,
        "late": run.deadline_late,
        "missed": run.deadline_missed,
        "shed": run.deadline_shed,
        "degraded_seconds": sum(e - s for s, e, _ in intervals),
        "intervals": [
            {"start": s, "end": e, "worst": w} for s, e, w in intervals
        ],
    }
    return AnalysisReport(
        dataset=dataset,
        thresholds=thresholds,
        start=start,
        end=end,
        total=run.total_records,
        delivered=run.delivered,
        medium_drops=run.dropped - run.transport_dropped,
        transport_drops=run.transport_dropped,
        drops_by_reason=dict(sorted(run.drop_reasons.items())),
        run_summary=summary,
        summary_consistent=consistent,
        audit=audit,
        aggregates=aggregates,
        anomalies=anomalies,
        lineages=lineages,
        crashes=[
            {"t": a.t, **a.data}
            for a in anomalies
            if a.kind == "last-crash"
        ],
        fidelity=fidelity,
    )


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------


def render_text(report: AnalysisReport) -> str:
    lines: list[str] = []
    lines.append("PoEm run forensics")
    lines.append("==================")
    lines.append(
        f"run window   [{report.start:.3f}, {report.end:.3f}]"
        f"  ({report.duration:.3f} s)"
    )
    lines.append(
        f"packets      {report.total} total,"
        f" {report.delivered} delivered"
        f" ({report.delivery_ratio:.1%}),"
        f" {report.medium_drops} medium +"
        f" {report.transport_drops} transport drops"
    )
    if report.drops_by_reason:
        reasons = ", ".join(
            f"{k}={v}" for k, v in report.drops_by_reason.items()
        )
        lines.append(f"drop reasons {reasons}")
    lines.append(
        f"telemetry    {len(report.dataset.spans)} trace spans,"
        f" {len(report.dataset.sync_samples)} sync samples,"
        f" {len(report.dataset.scene_events)} scene events"
    )
    if report.run_summary is not None:
        verdict = "consistent" if report.summary_consistent else (
            "INCONSISTENT with recomputed totals"
        )
        lines.append(f"run summary  recorded at shutdown — {verdict}")
    else:
        lines.append(
            "run summary  absent (no clean-shutdown marker in recording)"
        )
    fid = report.fidelity
    if fid:
        line = (
            f"fidelity     {fid['verdict'].upper()}"
            f" — {fid['on_time']} on time, {fid['late']} late,"
            f" {fid['missed']} missed"
            f" (budget {fid['lag_budget'] * 1e3:.0f} ms)"
        )
        if fid.get("shed"):
            line += f", {fid['shed']} shed"
        lines.append(line)
        if fid.get("degraded_seconds"):
            lines.append(
                f"             left real-time territory for"
                f" {fid['degraded_seconds']:.2f} s:"
            )
            for iv in fid.get("intervals", []):
                lines.append(
                    f"               {iv['start']:.3f}s – {iv['end']:.3f}s"
                    f"  (worst {iv['worst']})"
                )
    lines.append("")
    lines.append(f"clock audit ({len(report.audit.estimates)} clients)")
    lines.append("-----------")
    if not report.audit.estimates:
        lines.append("  no sync samples recorded")
    for node, est in sorted(report.audit.estimates.items()):
        name = f"node {node}" + (f" ({est.label})" if est.label else "")
        lines.append(
            f"  {name:<18} drift {est.rate * 1e3:+8.3f} ms/s"
            f"  over {est.samples:>3} samples"
            f"  worst gap {est.max_gap:7.2f} s"
            f"  projected error {est.projected_error * 1e3:8.3f} ms"
        )
    lines.append("")
    lines.append(f"anomalies ({len(report.anomalies)})")
    lines.append("---------")
    if not report.anomalies:
        lines.append("  none detected")
    for a in report.anomalies:
        lines.append(
            f"  [{a.severity:>8}] {a.kind:<20} {a.subject}: {a.detail}"
        )
    if report.crashes:
        lines.append("")
        lines.append(f"worker crashes ({len(report.crashes)})")
        lines.append("--------------")
        for crash in report.crashes:
            lines.append(
                f"  worker {crash.get('worker', '?')}"
                f" at t={float(crash.get('t') or 0.0):.3f}s:"
                f" {crash.get('reason') or 'unknown failure'}"
            )
            for key in ("flight", "worker_flight"):
                if crash.get(key):
                    lines.append(f"    {key.replace('_', ' ')}: {crash[key]}")
            # Inline the last seconds before the death when the artifact
            # is still on disk (it lives in tmp — often gone by analysis
            # time on another host, hence best-effort).
            for key in ("worker_flight", "flight"):
                path = crash.get(key)
                if not path:
                    continue
                try:
                    artifact = flightrec.load_flight(path)
                except (OSError, ValueError):
                    continue
                for row in flightrec.format_flight(
                    artifact, events=8
                ).splitlines():
                    lines.append(f"    {row}")
                break
    if report.lineages:
        lines.append("")
        lines.append("sample lineage")
        lines.append("--------------")
        for lin in report.lineages:
            lines.append(format_lineage(lin))
    return "\n".join(lines) + "\n"


def render_json(report: AnalysisReport, *, indent: int = 2) -> str:
    return json.dumps(report.as_dict(), indent=indent, sort_keys=True)


_HTML_STYLE = """
body { font-family: ui-monospace, Menlo, Consolas, monospace;
       margin: 2em; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.6em 0; }
th, td { border: 1px solid #bbb; padding: 0.25em 0.6em;
         text-align: right; font-size: 0.9em; }
th { background: #eee; } td.l, th.l { text-align: left; }
.critical { color: #a00; font-weight: bold; }
.warning { color: #a60; }
pre { background: #f6f6f6; padding: 0.8em; overflow-x: auto; }
"""


def render_html(report: AnalysisReport, *, title: str = "PoEm run forensics") -> str:
    """A self-contained single-file HTML report (no external assets)."""
    esc = _html.escape
    parts: list[str] = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>{esc(title)}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        f"<h1>{esc(title)}</h1>",
        "<h2>Run</h2><table>",
        "<tr><th class='l'>metric</th><th>value</th></tr>",
    ]
    run_rows = [
        ("window", f"[{report.start:.3f}, {report.end:.3f}] s"),
        ("duration", f"{report.duration:.3f} s"),
        ("packets", report.total),
        ("delivered",
         f"{report.delivered} ({report.delivery_ratio:.1%})"),
        ("medium drops", report.medium_drops),
        ("transport drops", report.transport_drops),
        ("trace spans", len(report.dataset.spans)),
        ("sync samples", len(report.dataset.sync_samples)),
        ("run summary",
         "absent" if report.run_summary is None
         else ("consistent" if report.summary_consistent
               else "INCONSISTENT")),
    ]
    fid = report.fidelity
    if fid:
        run_rows.append(("fidelity", fid["verdict"]))
        run_rows.append((
            "deadlines",
            f"{fid['on_time']} on time / {fid['late']} late /"
            f" {fid['missed']} missed / {fid.get('shed', 0)} shed",
        ))
        if fid.get("degraded_seconds"):
            run_rows.append(
                ("degraded", f"{fid['degraded_seconds']:.2f} s")
            )
    for k, v in run_rows:
        parts.append(
            f"<tr><td class='l'>{esc(str(k))}</td>"
            f"<td>{esc(str(v))}</td></tr>"
        )
    parts.append("</table>")

    parts.append("<h2>Clock audit</h2><table>")
    parts.append(
        "<tr><th class='l'>client</th><th>samples</th>"
        "<th>drift (ms/s)</th><th>worst gap (s)</th>"
        "<th>projected error (ms)</th></tr>"
    )
    for node, est in sorted(report.audit.estimates.items()):
        name = f"node {node}" + (f" ({est.label})" if est.label else "")
        parts.append(
            f"<tr><td class='l'>{esc(name)}</td><td>{est.samples}</td>"
            f"<td>{est.rate * 1e3:+.3f}</td>"
            f"<td>{est.max_gap:.2f}</td>"
            f"<td>{est.projected_error * 1e3:.3f}</td></tr>"
        )
    parts.append("</table>")

    parts.append(f"<h2>Anomalies ({len(report.anomalies)})</h2>")
    if report.anomalies:
        parts.append(
            "<table><tr><th class='l'>severity</th>"
            "<th class='l'>kind</th><th class='l'>subject</th>"
            "<th class='l'>detail</th></tr>"
        )
        for a in report.anomalies:
            parts.append(
                f"<tr><td class='l {esc(a.severity)}'>{esc(a.severity)}"
                f"</td><td class='l'>{esc(a.kind)}</td>"
                f"<td class='l'>{esc(a.subject)}</td>"
                f"<td class='l'>{esc(a.detail)}</td></tr>"
            )
        parts.append("</table>")
    else:
        parts.append("<p>none detected</p>")

    parts.append("<h2>Windowed aggregates (by channel)</h2><table>")
    parts.append(
        "<tr><th>t0</th><th>t1</th><th class='l'>group</th>"
        "<th>offered</th><th>delivered</th><th>medium</th>"
        "<th>transport</th><th>loss</th><th>bps</th>"
        "<th>delay (ms)</th><th>jitter (ms)</th></tr>"
    )
    for w in report.aggregates:
        delay = (
            f"{w.mean_delay * 1e3:.3f}" if w.mean_delay is not None
            else "-"
        )
        jitter = (
            f"{w.jitter * 1e3:.3f}" if w.jitter is not None else "-"
        )
        parts.append(
            f"<tr><td>{w.t0:.2f}</td><td>{w.t1:.2f}</td>"
            f"<td class='l'>{esc(str(w.group))}</td>"
            f"<td>{w.offered}</td><td>{w.delivered}</td>"
            f"<td>{w.medium_drops}</td><td>{w.transport_drops}</td>"
            f"<td>{w.loss_rate:.1%}</td>"
            f"<td>{w.throughput_bps:.0f}</td>"
            f"<td>{delay}</td><td>{jitter}</td></tr>"
        )
    parts.append("</table>")

    if report.crashes:
        parts.append(
            f"<h2>Worker crashes ({len(report.crashes)})</h2><table>"
            "<tr><th>t (s)</th><th>worker</th><th class='l'>reason</th>"
            "<th class='l'>flight artifacts</th></tr>"
        )
        for crash in report.crashes:
            artifacts = ", ".join(
                str(crash[k]) for k in ("flight", "worker_flight")
                if crash.get(k)
            ) or "-"
            parts.append(
                f"<tr><td>{float(crash.get('t') or 0.0):.3f}</td>"
                f"<td>{esc(str(crash.get('worker', '?')))}</td>"
                f"<td class='l critical'>"
                f"{esc(str(crash.get('reason') or 'unknown'))}</td>"
                f"<td class='l'>{esc(artifacts)}</td></tr>"
            )
        parts.append("</table>")

    if report.lineages:
        parts.append("<h2>Sample lineage</h2>")
        for lin in report.lineages:
            parts.append(f"<pre>{esc(format_lineage(lin))}</pre>")
    parts.append("</body></html>")
    return "".join(parts)
