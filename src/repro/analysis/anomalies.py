"""Anomaly detectors over one recorded run, with pluggable thresholds.

Each detector scans a different join of the recording and emits
:class:`Anomaly` findings; :func:`detect_anomalies` runs the whole
catalog.  Detection is **aggregated** — a drop storm yields one finding
per (window, group), not one per packet — so a pathological run cannot
flood the report.

Catalog (kind → what it means):

``scheduler-lag``
    sampled Step-5 spans fired later than ``t_forward`` by more than
    the budget: the server is falling behind real time (the paper's
    "overload of server computation").
``timestamp-inversion``
    a packet's (skew-corrected) origin stamp is *later* than the
    server receipt stamp by more than the tolerance — the client clock
    was ahead beyond what the §4.1 sync explains, or sync is broken.
``drop-storm``
    a window's loss rate exceeded the threshold with at least
    ``storm_min_offered`` packets offered (medium and transport loss
    reported as separate findings).
``reordering``
    delivery order inverted sequence order for a (source, receiver)
    flow — legitimate under multi-path delay models, suspicious in a
    single-link run.
``clock-drift``
    a client's fitted drift projects more stamp error over its longest
    uncorrected stretch than the budget allows: its ``t_origin`` stamps
    (and every delay statistic built on them) are questionable.
``overload-degraded``
    the overload controller left NOMINAL for an interval (reconstructed
    from recorded ``overload-state`` transitions): the run's real-time
    validity envelope was violated between those stamps.
``deadline-miss``
    delivered frames fired later than ``MISS_FACTOR`` (10) lag budgets
    (or frames were shed outright as hopelessly late) at a rate above the
    threshold — latency/jitter statistics from this run describe the
    overloaded emulator, not the emulated network.
``cross-shard-inversion``
    (sharded runs only — gated on the ``cluster-run`` event) the
    parent's event-time merge of the per-shard record streams is not
    monotone: a record's terminal event precedes its merge
    predecessor's by more than the tolerance, so the shards' virtual
    clocks disagree about when things happened and cross-shard latency
    comparisons from this recording are suspect.
``last-crash``
    the run recorded one or more ``worker-crash`` scene events: a shard
    worker died (or its pipe broke) mid-run and the parent aborted.
    The finding carries the flight-recorder artifact paths dumped at
    crash time — feed them to ``poem analyze --flight`` for the last
    seconds of events/spans before the death.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.overload import (
    DEFAULT_LAG_BUDGET,
    MISS_FACTOR,
    DeadlineAccounting,
    degraded_intervals,
)
from ..core.packet import DropReason
from ..core.recording import RunDataset
from .aggregates import WindowStats, windowed_aggregates
from .drift import ClockAudit, audit_clocks

__all__ = ["Thresholds", "Anomaly", "detect_anomalies", "ANOMALY_KINDS"]

ANOMALY_KINDS = (
    "scheduler-lag",
    "timestamp-inversion",
    "drop-storm",
    "reordering",
    "clock-drift",
    "overload-degraded",
    "deadline-miss",
    "cross-shard-inversion",
    "last-crash",
)


@dataclass(frozen=True)
class Thresholds:
    """Detection budgets.  Every field has a deployment-sane default;
    override per call (CLI flags ``--lag-budget``/``--drift-budget``
    map straight onto ``lag_budget``/``drift_budget``; ``poem analyze``
    and :func:`~repro.analysis.report.analyze` without thresholds take
    ``lag_budget`` from the run's summary instead)."""

    lag_budget: float = DEFAULT_LAG_BUDGET
    """Max tolerated scheduler lag (s) before a span is a spike."""

    inversion_tolerance: float = 0.001
    """Grace (s) before origin>receipt counts as an inversion (sync
    error is bounded by half the exchange-delay asymmetry)."""

    storm_loss_rate: float = 0.5
    """Windowed loss rate at/above which a window is a drop storm."""

    storm_min_offered: int = 5
    """Minimum offered packets for a window to qualify (one lost
    packet out of one offered is not a storm)."""

    drift_budget: float = 0.010
    """Max tolerated projected stamp error (s) per client."""

    deadline_miss_rate: float = 0.01
    """Fraction of deliveries later than ``MISS_FACTOR`` lag budgets
    at/above which the run's real-time claim is considered broken."""

    window: float = 1.0
    """Window width (s) for the windowed detectors."""


@dataclass(frozen=True)
class Anomaly:
    """One finding."""

    kind: str
    severity: str
    """``warning`` or ``critical``."""

    subject: str
    """What it is about (node, link, window...) — human-readable."""

    detail: str
    t: Optional[float] = None
    """Server-clock time (window start for windowed findings)."""

    data: dict = field(default_factory=dict)
    """Machine-readable specifics for the JSON report."""

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "subject": self.subject,
            "detail": self.detail,
            "t": self.t,
            "data": self.data,
        }


# ---------------------------------------------------------------------------
# Individual detectors (each: dataset [, thresholds, audit] -> [Anomaly])
# ---------------------------------------------------------------------------


def detect_scheduler_lag(
    dataset: RunDataset, thresholds: Thresholds
) -> list[Anomaly]:
    out: list[Anomaly] = []
    worst: Optional[float] = None
    spikes = 0
    for span in dataset.spans:
        if span.lag is None:
            continue
        if span.lag > thresholds.lag_budget:
            spikes += 1
            if worst is None or span.lag > worst:
                worst = span.lag
    if spikes:
        out.append(
            Anomaly(
                kind="scheduler-lag",
                severity="critical"
                if worst is not None
                and worst > MISS_FACTOR * thresholds.lag_budget
                else "warning",
                subject="scan loop",
                detail=(
                    f"{spikes} sampled span(s) fired more than"
                    f" {thresholds.lag_budget * 1e3:.1f} ms late"
                    f" (worst {worst * 1e3:.1f} ms)"
                ),
                data={"spikes": spikes, "worst_lag": worst,
                      "budget": thresholds.lag_budget},
            )
        )
    return out


def detect_timestamp_inversions(
    dataset: RunDataset,
    thresholds: Thresholds,
    audit: Optional[ClockAudit] = None,
) -> list[Anomaly]:
    if audit is None:
        audit = audit_clocks(dataset)
    by_source: dict[int, list[float]] = {}
    for record in dataset.packets:
        if record.t_origin is None or record.t_receipt is None:
            continue
        corrected = record.t_origin + audit.correction_at(
            record.source, record.t_receipt
        )
        excess = corrected - record.t_receipt
        if excess > thresholds.inversion_tolerance:
            by_source.setdefault(record.source, []).append(excess)
    out: list[Anomaly] = []
    for source, excesses in sorted(by_source.items()):
        worst = max(excesses)
        out.append(
            Anomaly(
                kind="timestamp-inversion",
                severity="critical",
                subject=f"node {source}",
                detail=(
                    f"{len(excesses)} packet(s) stamped after their own"
                    f" server receipt (worst {worst * 1e3:.3f} ms beyond"
                    " tolerance) — client clock ahead beyond sync error"
                ),
                data={"count": len(excesses), "worst_excess": worst},
            )
        )
    return out


def detect_drop_storms(
    dataset: RunDataset,
    thresholds: Thresholds,
    aggregates: Optional[list[WindowStats]] = None,
) -> list[Anomaly]:
    """Windows of ``aggregates`` (computed from the dataset when not
    given) whose medium or transport loss reached the storm rate."""
    out: list[Anomaly] = []
    if aggregates is None:
        aggregates = windowed_aggregates(dataset, window=thresholds.window)
    for b in aggregates:
        if b.offered < thresholds.storm_min_offered:
            continue
        for flavor, count in (
            ("medium", b.medium_drops),
            ("transport", b.transport_drops),
        ):
            rate = count / b.offered
            if rate >= thresholds.storm_loss_rate:
                out.append(
                    Anomaly(
                        kind="drop-storm",
                        severity="warning" if rate < 0.9 else "critical",
                        subject=f"channel {b.group}"
                                f" @ [{b.t0:.2f}, {b.t1:.2f})",
                        detail=(
                            f"{flavor} loss {rate:.0%}"
                            f" ({count}/{b.offered} offered)"
                        ),
                        t=b.t0,
                        data={"channel": b.group, "flavor": flavor,
                              "rate": rate, "offered": b.offered},
                    )
                )
    return out


def detect_reordering(dataset: RunDataset) -> list[Anomaly]:
    flows: dict[tuple[int, int], list] = {}
    for record in dataset.delivered:
        if record.t_delivered is None or record.receiver is None:
            continue
        flows.setdefault((record.source, record.receiver), []).append(
            record
        )
    out: list[Anomaly] = []
    for (source, receiver), records in sorted(flows.items()):
        records.sort(key=lambda r: (r.t_delivered, r.record_id))
        inversions = sum(
            1
            for a, b in zip(records, records[1:])
            if b.seqno < a.seqno
        )
        if inversions:
            out.append(
                Anomaly(
                    kind="reordering",
                    severity="warning",
                    subject=f"flow {source}->{receiver}",
                    detail=(
                        f"{inversions} delivery-order inversion(s)"
                        f" across {len(records)} delivered packets"
                    ),
                    data={"source": source, "receiver": receiver,
                          "inversions": inversions,
                          "delivered": len(records)},
                )
            )
    return out


def detect_clock_drift(
    dataset: RunDataset,
    thresholds: Thresholds,
    audit: Optional[ClockAudit] = None,
) -> list[Anomaly]:
    if audit is None:
        audit = audit_clocks(dataset)
    out: list[Anomaly] = []
    for node, est in sorted(audit.estimates.items()):
        if est.projected_error <= thresholds.drift_budget:
            continue
        out.append(
            Anomaly(
                kind="clock-drift",
                severity="critical"
                if est.projected_error > 10 * thresholds.drift_budget
                else "warning",
                subject=f"node {node}"
                        + (f" ({est.label})" if est.label else ""),
                detail=(
                    f"fitted drift {est.rate * 1e3:+.3f} ms/s over"
                    f" {est.samples} sync samples projects up to"
                    f" {est.projected_error * 1e3:.2f} ms stamp error"
                    f" (budget {thresholds.drift_budget * 1e3:.2f} ms)"
                    f" across its longest {est.max_gap:.2f} s"
                    " uncorrected stretch"
                ),
                data={"node": node, "rate": est.rate,
                      "projected_error": est.projected_error,
                      "max_gap": est.max_gap, "samples": est.samples},
            )
        )
    return out


def detect_overload_degradation(dataset: RunDataset) -> list[Anomaly]:
    out: list[Anomaly] = []
    for start, end, worst in degraded_intervals(dataset):
        out.append(
            Anomaly(
                kind="overload-degraded",
                severity="critical" if worst == "saturated" else "warning",
                subject="overload controller",
                detail=(
                    f"run left real-time territory for {end - start:.2f}s"
                    f" ({start:.3f}s – {end:.3f}s, worst state {worst})"
                ),
                t=start,
                data={"start": start, "end": end, "worst": worst,
                      "duration": end - start},
            )
        )
    return out


def detect_deadline_misses(
    dataset: RunDataset, thresholds: Thresholds
) -> list[Anomaly]:
    """Validity envelope over *every* delivered record (the lag detector
    above only sees sampled trace spans)."""
    lags = dataset.lags()
    deadlines = DeadlineAccounting(thresholds.lag_budget)
    for lag in lags:
        deadlines.note(lag)
    missed, total = deadlines.missed, deadlines.total
    worst = max(lags) if missed else 0.0
    horizon = thresholds.lag_budget * MISS_FACTOR
    shed = sum(
        1 for p in dataset.drops
        if p.drop_reason == DropReason.DEADLINE_SHED
    )
    rate = missed / total if total else 0.0
    if not shed and (not missed or rate < thresholds.deadline_miss_rate):
        return []
    parts = []
    if missed:
        parts.append(
            f"{missed}/{total} deliveries ({rate:.1%}) fired more than"
            f" {horizon * 1e3:.0f} ms late (worst {worst * 1e3:.1f} ms)"
        )
    if shed:
        parts.append(f"{shed} frame(s) shed as hopelessly late")
    return [
        Anomaly(
            kind="deadline-miss",
            severity="critical",
            subject="validity envelope",
            detail="; ".join(parts),
            data={"missed": missed, "delivered": total, "rate": rate,
                  "worst_lag": worst, "shed": shed,
                  "budget": thresholds.lag_budget},
        )
    ]


def detect_cluster_merge_inversions(
    dataset: RunDataset, thresholds: Thresholds
) -> list[Anomaly]:
    """Cross-shard timestamp coherence of a sharded run's merged log.

    The sharded cluster's per-worker virtual clocks advance
    independently between barriers; at collect time the parent merges
    the shard streams in event-time order and the merged record ids are
    assigned in that order.  If the recording's packet log (walked in
    record-id order) is *not* monotone in event time, either the merge
    is broken or the recording was tampered with/truncated — flag it.
    Single-process recordings (no ``cluster-run`` event) are exempt:
    their log is in ingest order, not delivery order, by design.
    """
    cluster = dataset.cluster_run
    if cluster is None:
        return []
    tolerance = thresholds.inversion_tolerance
    inversions = 0
    worst = 0.0
    prev: Optional[float] = None
    worst_at: Optional[int] = None
    for record in sorted(dataset.packets, key=lambda r: r.record_id):
        for stamp in (record.t_delivered, record.t_forward,
                      record.t_receipt, record.t_origin):
            if stamp is not None:
                break
        else:
            continue
        if prev is not None and stamp < prev - tolerance:
            inversions += 1
            if prev - stamp > worst:
                worst = prev - stamp
                worst_at = record.record_id
        if prev is None or stamp > prev:
            prev = stamp
    if not inversions:
        return []
    return [
        Anomaly(
            kind="cross-shard-inversion",
            severity="critical",
            subject=f"{int(cluster.get('n_workers', 0))}-worker merge",
            detail=(
                f"{inversions} record(s) out of event-time order in the"
                f" merged shard log (worst {worst * 1e3:.3f} ms, first at"
                f" record {worst_at}) — per-shard clocks or the collect"
                " merge are incoherent"
            ),
            data={"count": inversions, "worst": worst,
                  "record_id": worst_at,
                  "n_workers": int(cluster.get("n_workers", 0))},
        )
    ]


def detect_worker_crashes(dataset: RunDataset) -> list[Anomaly]:
    """Surface recorded ``worker-crash`` scene events as findings.

    The sharded parent records one such event (with the worker index,
    the failure reason and the flight-recorder artifact paths it
    managed to dump) before raising :class:`~repro.errors.ClusterError`.
    Any packet statistics from such a recording describe a *truncated*
    run — always critical.
    """
    out: list[Anomaly] = []
    for event in dataset.scene_events:
        if event.kind != "worker-crash":
            continue
        details = event.details or {}
        worker = details.get("worker", "?")
        reason = details.get("reason", "unknown failure")
        artifacts = [
            p for p in (details.get("flight"), details.get("worker_flight"))
            if p
        ]
        detail = f"worker died mid-run: {reason}"
        if artifacts:
            detail += (
                " — flight recorder dumped to "
                + ", ".join(str(p) for p in artifacts)
                + " (render with `poem analyze --flight PATH`)"
            )
        out.append(
            Anomaly(
                kind="last-crash",
                severity="critical",
                subject=f"shard worker {worker}",
                detail=detail,
                t=event.time,
                data={
                    "worker": worker,
                    "reason": reason,
                    "flight": details.get("flight"),
                    "worker_flight": details.get("worker_flight"),
                },
            )
        )
    return out


def detect_anomalies(
    dataset: RunDataset,
    thresholds: Optional[Thresholds] = None,
    *,
    audit: Optional[ClockAudit] = None,
    aggregates: Optional[list[WindowStats]] = None,
) -> list[Anomaly]:
    """Run the whole catalog; findings ordered critical-first.
    ``audit`` and ``aggregates`` are computed when not supplied."""
    thresholds = thresholds if thresholds is not None else Thresholds()
    if audit is None:
        audit = audit_clocks(dataset)
    findings: list[Anomaly] = []
    findings += detect_scheduler_lag(dataset, thresholds)
    findings += detect_timestamp_inversions(dataset, thresholds, audit)
    findings += detect_drop_storms(dataset, thresholds, aggregates)
    findings += detect_reordering(dataset)
    findings += detect_clock_drift(dataset, thresholds, audit)
    findings += detect_overload_degradation(dataset)
    findings += detect_deadline_misses(dataset, thresholds)
    findings += detect_cluster_merge_inversions(dataset, thresholds)
    findings += detect_worker_crashes(dataset)
    findings.sort(
        key=lambda a: (0 if a.severity == "critical" else 1, a.kind)
    )
    return findings
