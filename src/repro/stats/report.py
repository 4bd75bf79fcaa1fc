"""Whole-run statistics report — PoEm's 'later statistics' pane (§3.2).

The recording threads exist "for later statistics and replay"; replay
lives in :mod:`repro.core.replay`, and this module is the statistics
half: one call turns a recording into the summary an experimenter reads
first — totals, drop breakdown, per-flow delivery/latency/jitter, and
the real-time fidelity verdict.  ``poem analyze`` takes its totals and
verdict from the same report.

``build_report`` returns structured data; ``format_report`` renders the
text block (what the CLI and examples print).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Union

from ..core.overload import (
    DEFAULT_LAG_BUDGET,
    DeadlineAccounting,
    OverloadState,
    degraded_intervals,
    fidelity_verdict,
)
from ..core.packet import DropReason, PacketRecord
from ..core.recording import Recorder, RunDataset, load_dataset
from .metrics import LatencyStats, jitter_stats, latency_stats

__all__ = ["FlowStats", "NodeActivity", "RunReport", "build_report",
           "format_report", "format_health", "recorded_lag_budget"]


@dataclass(frozen=True)
class NodeActivity:
    """One node's traffic footprint (as hop sender / receiver)."""

    node: int
    frames_sent: int
    frames_received: int
    bits_sent: int
    bits_received: int
    drops_as_sender: int


@dataclass(frozen=True)
class FlowStats:
    """One (source, destination) data flow's end-to-end numbers."""

    source: int
    destination: int
    offered: int
    delivered: int
    latency: Optional[LatencyStats]
    jitter: Optional[float]

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.offered if self.offered else 0.0


@dataclass(frozen=True)
class RunReport:
    """Aggregate statistics of one recorded run."""

    duration: float
    total_records: int
    delivered: int
    dropped: int
    drop_reasons: dict[str, int]
    control_records: int
    data_records: int
    flows: list[FlowStats] = field(default_factory=list)
    nodes: list[NodeActivity] = field(default_factory=list)
    lag_budget: float = DEFAULT_LAG_BUDGET
    deadline_on_time: int = 0
    deadline_late: int = 0
    deadline_missed: int = 0
    """Validity envelope: delivered frames bucketed by scheduler lag
    (``t_delivered − t_forward``) against the lag budget by a
    :class:`~repro.core.overload.DeadlineAccounting`.  Virtual-clock
    runs are always entirely on time."""

    overload_intervals: list[tuple[float, float, str]] = field(
        default_factory=list
    )
    """``(start, end, worst_state)`` stretches the recorded overload
    controller spent outside NOMINAL."""

    @property
    def overall_loss(self) -> float:
        return self.dropped / self.total_records if self.total_records else 0.0

    @property
    def deadline_shed(self) -> int:
        """Frames the overload controller dropped as hopelessly late."""
        return self.drop_reasons.get(DropReason.DEADLINE_SHED, 0)

    @property
    def fidelity(self) -> str:
        """The run's :func:`~repro.core.overload.fidelity_verdict`."""
        worst = max(
            (w for _, _, w in self.overload_intervals),
            key=lambda w: OverloadState.SEVERITY.get(w, 0),
            default=OverloadState.NOMINAL,
        )
        return fidelity_verdict(
            self.deadline_late, self.deadline_missed, self.deadline_shed,
            worst,
        )

    @property
    def transport_dropped(self) -> int:
        """Drops caused by the fault-tolerance/transport layer (stale
        peers, outbox overflow) rather than the emulated medium."""
        return sum(
            count
            for reason, count in self.drop_reasons.items()
            if reason in DropReason.TRANSPORT
        )


def recorded_lag_budget(dataset: RunDataset) -> float:
    """The lag budget the run was judged against live: its run
    summary's ``deadline.budget``, or the 10 ms default when the run
    recorded none."""
    deadline = (dataset.run_summary or {}).get("deadline") or {}
    return float(deadline.get("budget", DEFAULT_LAG_BUDGET))


def build_report(
    source: Union[str, Recorder, RunDataset],
    *,
    top_flows: int = 10,
    lag_budget: Optional[float] = None,
) -> RunReport:
    """Compute the run report of one recording (a recorder, a SQLite
    path, or a loaded :class:`RunDataset`).  ``duration`` is the span
    of :meth:`RunDataset.time_range`.  Deliveries are bucketed against
    ``lag_budget``, by default the run's own
    (:func:`recorded_lag_budget`)."""
    dataset = load_dataset(source)
    if lag_budget is None:
        lag_budget = recorded_lag_budget(dataset)
    packets = dataset.packets
    start, end = dataset.time_range()
    dropped = [p for p in packets if p.dropped]
    reasons = Counter(p.drop_reason for p in dropped)

    # Per-flow stats over data records, keyed by (source, destination).
    by_flow: dict[tuple[int, int], list[PacketRecord]] = {}
    for p in packets:
        if p.kind == "data" and p.destination >= 0:
            by_flow.setdefault((p.source, p.destination), []).append(p)
    flows = []
    for (src, dst), _count in Counter(
        {key: len(rows) for key, rows in by_flow.items()}
    ).most_common(top_flows):
        rows = by_flow[src, dst]
        delivered_rows = [
            p for p in rows if not p.dropped and p.receiver == dst
        ]
        flows.append(
            FlowStats(
                source=src,
                destination=dst,
                # Offered = distinct frames (dedup fan-out rows by seqno).
                offered=len({p.seqno for p in rows}),
                delivered=len({p.seqno for p in delivered_rows}),
                latency=latency_stats(delivered_rows),
                jitter=jitter_stats(delivered_rows),
            )
        )

    # Per-node activity (hop-level: sender/receiver of each record).
    activity: dict[int, dict[str, int]] = {}

    def slot(node: int) -> dict[str, int]:
        return activity.setdefault(
            node,
            {"sent": 0, "recv": 0, "bits_out": 0, "bits_in": 0, "drops": 0},
        )

    for p in packets:
        s = slot(p.sender)
        s["sent"] += 1
        s["bits_out"] += p.size_bits
        if p.dropped:
            s["drops"] += 1
        elif p.receiver is not None:
            r = slot(p.receiver)
            r["recv"] += 1
            r["bits_in"] += p.size_bits
    nodes = [
        NodeActivity(
            node=n,
            frames_sent=a["sent"],
            frames_received=a["recv"],
            bits_sent=a["bits_out"],
            bits_received=a["bits_in"],
            drops_as_sender=a["drops"],
        )
        for n, a in sorted(activity.items())
    ]

    deadlines = DeadlineAccounting(lag_budget)
    for lag in dataset.lags():
        deadlines.note(lag)

    return RunReport(
        duration=end - start,
        total_records=len(packets),
        delivered=len(packets) - len(dropped),
        dropped=len(dropped),
        drop_reasons=dict(reasons),
        control_records=sum(1 for p in packets if p.kind != "data"),
        data_records=sum(1 for p in packets if p.kind == "data"),
        flows=flows,
        nodes=nodes,
        lag_budget=lag_budget,
        deadline_on_time=deadlines.on_time,
        deadline_late=deadlines.late,
        deadline_missed=deadlines.missed,
        overload_intervals=degraded_intervals(dataset),
    )


def format_report(report: RunReport) -> str:
    """Render the report as the text block the CLI prints."""
    lines = [
        "Run statistics",
        f"  duration        : {report.duration:.3f}s",
        f"  packet records  : {report.total_records} "
        f"({report.data_records} data, {report.control_records} control)",
        f"  delivered       : {report.delivered}",
        f"  dropped         : {report.dropped} "
        f"({report.overall_loss:.1%} of records)",
    ]
    for reason, count in sorted(report.drop_reasons.items()):
        tag = " [transport]" if reason in DropReason.TRANSPORT else ""
        lines.append(f"    {reason:<18}: {count}{tag}")
    if report.transport_dropped:
        lines.append(
            f"  transport drops : {report.transport_dropped} "
            "(stale peers / outbox overflow — not the radio medium)"
        )
    fid = (
        f"  fidelity        : {report.fidelity} "
        f"(budget {report.lag_budget * 1e3:.0f}ms: "
        f"{report.deadline_on_time} on time, {report.deadline_late} late, "
        f"{report.deadline_missed} missed"
    )
    if report.deadline_shed:
        fid += f", {report.deadline_shed} shed"
    lines.append(fid + ")")
    if report.flows:
        lines.append("  flows (by record volume):")
        for f in report.flows:
            lat = (
                "-" if f.latency is None
                else f"{f.latency.mean * 1e3:.2f}ms mean / "
                     f"{f.latency.p95 * 1e3:.2f}ms p95"
            )
            jit = "-" if f.jitter is None else f"{f.jitter * 1e3:.2f}ms"
            lines.append(
                f"    {f.source} -> {f.destination}: "
                f"{f.delivered}/{f.offered} ({f.delivery_rate:.1%})  "
                f"latency {lat}  jitter {jit}"
            )
    if report.nodes:
        lines.append("  node activity:")
        for n in report.nodes:
            lines.append(
                f"    node {n.node:3d}: tx {n.frames_sent:5d} "
                f"({n.bits_sent} b)  rx {n.frames_received:5d} "
                f"({n.bits_received} b)  tx-drops {n.drops_as_sender}"
            )
    return "\n".join(lines)


def format_health(health: dict) -> str:
    """Render a server/emulator ``health()`` snapshot as a text pane.

    Accepts the dict shape produced by
    :meth:`repro.core.tcpserver.PoEmServer.health`,
    :meth:`repro.core.server.InProcessEmulator.health` and
    :meth:`repro.cluster.sharded.ShardedEmulator.health` (whose
    ``cluster`` section renders one line per shard worker).
    """
    lines = [
        "Server health",
        f"  running         : {health.get('running', '?')}",
        f"  emulation time  : {float(health.get('time', 0.0)):.3f}s",
    ]
    threads = health.get("threads", {})
    if threads:
        lines.append("  threads:")
        for name, t in sorted(threads.items()):
            status = "alive" if t.get("alive") else "DEAD"
            extra = ""
            if t.get("restarts"):
                extra += f"  restarts {t['restarts']}"
            if t.get("failures"):
                extra += f"  failures {t['failures']}"
            if t.get("last_error"):
                extra += f"  last: {t['last_error']}"
            lines.append(f"    {name:<20}: {status}{extra}")
    clients = health.get("clients", {})
    if clients:
        lines.append("  clients:")
        for nid, c in sorted(clients.items()):
            mark = " STALE" if c.get("stale") else ""
            lines.append(
                f"    node {nid:3d} ({c.get('label') or '-'}): "
                f"outbox {c.get('outbox_depth', 0)}  "
                f"overflow {c.get('overflow', 0)}{mark}"
            )
    quarantined = health.get("quarantined", {})
    if quarantined:
        lines.append(
            "  quarantined     : "
            + ", ".join(str(n) for n in sorted(quarantined))
        )
    engine = health.get("engine", {})
    if engine:
        line = (
            f"  engine          : ingested {engine.get('ingested', 0)}  "
            f"forwarded {engine.get('forwarded', 0)}  "
            f"dropped {engine.get('dropped', 0)}"
        )
        if engine.get("transport_dropped"):
            line += f"  (transport {engine['transport_dropped']})"
        lines.append(line)
    if "schedule_depth" in health:
        lines.append(
            f"  schedule depth  : {health['schedule_depth']}"
        )
    overload = health.get("overload")
    if overload:
        line = (
            f"  overload        : {overload.get('state', '?')}  "
            f"lag-ewma {float(overload.get('lag_ewma', 0.0)) * 1e3:.2f}ms"
        )
        if overload.get("shed"):
            line += f"  shed {overload['shed']}"
        if overload.get("degraded_seconds"):
            line += f"  degraded {float(overload['degraded_seconds']):.2f}s"
        lines.append(line)
    deadline = health.get("deadline")
    if deadline:
        line = (
            f"  deadlines       : {deadline.get('on_time', 0)} on time  "
            f"{deadline.get('late', 0)} late  "
            f"{deadline.get('missed', 0)} missed "
            f"(budget {float(deadline.get('budget', 0.0)) * 1e3:.0f}ms)"
        )
        if deadline.get("verdict"):
            line += f"  {deadline['verdict']}"
        lines.append(line)
    cluster = health.get("cluster")
    if cluster:
        lines.append(
            f"  cluster         : {cluster.get('n_workers', 0)} workers"
            f" ({cluster.get('alive', 0)} alive)"
        )
        for w in cluster.get("per_worker", []):
            lines.append(
                f"    shard {w.get('worker', '?')}: "
                f"ingested {w.get('shard_ingested', 0)}  "
                f"queue {w.get('queue_depth', 0)}  "
                f"busy {float(w.get('busy_fraction', 0.0)):.1%}"
            )
        crash_artifacts = cluster.get("crash_artifacts") or {}
        for worker, path in sorted(crash_artifacts.items()):
            lines.append(f"    crash artifact (worker {worker}): {path}")
    if health.get("metrics_address"):
        host_, port_ = health["metrics_address"][:2]
        lines.append(f"  metrics         : http://{host_}:{port_}/metrics")
    failures = health.get("recent_failures", [])
    if failures:
        lines.append("  recent failures:")
        for f in failures[-8:]:
            lines.append(f"    [{f.get('thread')}] {f.get('error')}")
    return "\n".join(lines)
