"""Per-packet lineage: the full life story of one recorded packet.

"What happened to packet 4821?" — answered by joining one
:class:`~repro.core.packet.PacketRecord` with its sampled pipeline span
(when the 1-in-N tracer caught it) and the sender's clock audit:

======== ==================================================================
stage    meaning
======== ==================================================================
origin   the client's parallel time-stamp (§4.1), **skew-corrected** onto
         the server clock using the nearest sync sample + fitted drift
receipt  server receive time (Step 1)
decision Steps 2–4 verdict: forwarded, or dropped with the reason
schedule the computed forward time pushed onto the schedule (Step 4)
fire     when the scan loop actually fired it (Step 5) — ``t_forward``
         plus the traced scheduler lag
send     hand-off to the receiver's sender thread (Step 6), from the
         traced ``send`` stage duration
delivery the recorded delivery stamp (Step 7)
======== ==================================================================

A dropped packet's lineage ends at its ``decision`` stage; a delivered
packet without a sampled span omits ``fire``/``send`` (the recorder has
no timing for them) and still resolves the other five.

On a sharded recording a traced packet's merged span also carries the
cross-process stages (:data:`~repro.obs.tracing.IPC_STAGES`); the
lineage then gains an extra ``shard-hop`` stage between ``receipt`` and
``decision`` showing the parent-side encode cost, the pipe dwell and
the worker-side decode cost of the hop.  ``shard-hop`` is deliberately
*not* in :data:`LINEAGE_STAGES` — single-process lineages stay seven
stages and :attr:`PacketLineage.complete` is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.packet import PacketRecord
from ..core.recording import RunDataset
from ..obs.tracing import IPC_STAGES
from .drift import ClockAudit, audit_clocks

__all__ = [
    "LineageStage",
    "PacketLineage",
    "lineage",
    "format_lineage",
    "LINEAGE_STAGES",
]

LINEAGE_STAGES = (
    "origin", "receipt", "decision", "schedule", "fire", "send", "delivery",
)
"""Canonical lineage stage names, in pipeline order."""


@dataclass(frozen=True)
class LineageStage:
    """One resolved event in a packet's life."""

    name: str
    t: Optional[float]
    """Server-clock time of the event (None when unknowable)."""

    detail: str = ""

    def as_dict(self) -> dict:
        return {"stage": self.name, "t": self.t, "detail": self.detail}


@dataclass(frozen=True)
class PacketLineage:
    """The joined life story of one packet record."""

    record: PacketRecord
    stages: tuple[LineageStage, ...]
    corrected_t_origin: Optional[float]
    """The origin stamp expressed on the server clock."""

    stamp_correction: float
    """What was added to the raw client stamp (0 when no sync history)."""

    span: Optional[object] = None
    """The matched :class:`~repro.obs.tracing.TraceSpan`, if sampled."""

    @property
    def complete(self) -> bool:
        """True when every canonical stage resolved with a time."""
        named = {s.name for s in self.stages if s.t is not None}
        return all(n in named for n in LINEAGE_STAGES)

    def stage(self, name: str) -> Optional[LineageStage]:
        for s in self.stages:
            if s.name == name:
                return s
        return None

    def as_dict(self) -> dict:
        return {
            "record_id": self.record.record_id,
            "source": self.record.source,
            "seqno": self.record.seqno,
            "sender": self.record.sender,
            "receiver": self.record.receiver,
            "channel": self.record.channel,
            "outcome": self.record.drop_reason or "delivered",
            "corrected_t_origin": self.corrected_t_origin,
            "stamp_correction": self.stamp_correction,
            "traced": self.span is not None,
            "stages": [s.as_dict() for s in self.stages],
        }


def lineage(
    dataset: RunDataset,
    record_id: int,
    *,
    audit: Optional[ClockAudit] = None,
) -> PacketLineage:
    """Resolve the lineage of one packet record.

    ``audit`` is recomputed from the dataset when not supplied; pass a
    precomputed one when resolving many lineages.
    """
    record = dataset.packet(record_id)
    if audit is None:
        audit = audit_clocks(dataset)

    stages: list[LineageStage] = []

    # -- origin: the client stamp, skew-corrected --------------------------
    corrected: Optional[float] = None
    correction = 0.0
    if record.t_origin is not None:
        anchor_t = (
            record.t_receipt if record.t_receipt is not None
            else record.t_origin
        )
        correction = audit.correction_at(record.source, anchor_t)
        corrected = record.t_origin + correction
        stages.append(
            LineageStage(
                "origin", corrected,
                f"client stamp {record.t_origin:.6f}"
                f" {correction:+.6f} skew correction",
            )
        )
    else:
        stages.append(LineageStage("origin", None, "no client stamp"))

    # -- receipt ------------------------------------------------------------
    stages.append(
        LineageStage(
            "receipt", record.t_receipt,
            "server receive (Step 1)" if record.t_receipt is not None
            else "not recorded",
        )
    )

    # -- shard-hop: cross-process stages on a sharded run's merged span ------
    spans = dataset.spans_for(record)
    span = spans[0] if spans else None
    if span is not None:
        ipc = {
            name: dur for name, dur in span.stages if name in IPC_STAGES
        }
        if ipc:
            stages.append(
                LineageStage(
                    "shard-hop", record.t_receipt,
                    f"pipe to shard worker: encode"
                    f" {ipc.get('ipc_encode', 0.0) * 1e6:.1f} us,"
                    f" dwell {ipc.get('ipc_queue', 0.0) * 1e3:.3f} ms,"
                    f" decode {ipc.get('ipc_decode', 0.0) * 1e6:.1f} us",
                )
            )

    # -- decision ------------------------------------------------------------
    if record.dropped:
        stages.append(
            LineageStage(
                "decision", record.t_receipt,
                f"dropped: {record.drop_reason}",
            )
        )
        return PacketLineage(
            record, tuple(stages), corrected, correction, span=span
        )
    stages.append(
        LineageStage("decision", record.t_receipt, "forward (Steps 2-4)")
    )

    # -- schedule ------------------------------------------------------------
    stages.append(
        LineageStage(
            "schedule", record.t_forward,
            "scheduled forward time" if record.t_forward is not None
            else "not recorded",
        )
    )

    # -- fire / send: only the sampled tracer knows these --------------------
    if span is not None and record.t_forward is not None:
        lag = span.lag if span.lag is not None else 0.0
        t_fire = record.t_forward + max(lag, 0.0)
        stages.append(
            LineageStage(
                "fire", t_fire,
                f"scan loop fired (scheduler lag {lag * 1e3:.3f} ms)",
            )
        )
        send_cost = dict(span.stages).get("send")
        if send_cost is not None:
            # The traced cost is measured CPU time; never let the
            # estimate overshoot the recorded delivery stamp (on the
            # virtual stack delivery is instantaneous in emulation time).
            t_send = t_fire + send_cost
            if record.t_delivered is not None:
                t_send = min(t_send, record.t_delivered)
            stages.append(
                LineageStage(
                    "send", t_send,
                    f"sender hand-off (+{send_cost * 1e6:.1f} us)",
                )
            )
        else:
            stages.append(
                LineageStage("send", None, "span lacks a send stage")
            )
    else:
        stages.append(
            LineageStage("fire", None, "not sampled by the tracer")
        )
        stages.append(
            LineageStage("send", None, "not sampled by the tracer")
        )

    # -- delivery -------------------------------------------------------------
    stages.append(
        LineageStage(
            "delivery", record.t_delivered,
            f"delivered to node {record.receiver}"
            if record.t_delivered is not None else "not recorded",
        )
    )
    return PacketLineage(
        record, tuple(stages), corrected, correction, span=span
    )


def format_lineage(lin: PacketLineage) -> str:
    """Human-readable multi-line rendering (CLI / console)."""
    r = lin.record
    head = (
        f"packet record {r.record_id}: src={r.source} seq={r.seqno}"
        f" {r.sender}->{r.receiver if r.receiver is not None else '?'}"
        f" ch={r.channel} kind={r.kind}"
        f" outcome={'dropped:' + r.drop_reason if r.dropped else 'delivered'}"
    )
    lines = [head]
    for s in lin.stages:
        t = f"{s.t:.6f}" if s.t is not None else "        --"
        lines.append(f"  {s.name:<9} {t:>14}  {s.detail}")
    return "\n".join(lines)
