"""Windowed traffic aggregates per channel.

The stats plane (:mod:`repro.stats.report`) totals a run; forensics
needs the *time structure*: a drop storm in one 2-second window looks
identical to uniform background loss in a whole-run total.  This module
buckets the packet log into fixed windows and, within each window,
groups outcomes by channel — computing throughput, delay, jitter
(RFC-3550-style mean absolute delta of consecutive delays), and loss
split into **medium** drops (the emulated radio: loss model, collision,
out of range …) versus **transport** drops (the fault-tolerance layer:
stalled clients, outbox overflow).  The split matters because only
medium drops say anything about the emulated MANET; transport drops
indict the deployment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..core.packet import DropReason, PacketRecord
from ..core.recording import RunDataset
from ..errors import AnalysisError
from ..stats.metrics import mean_abs_step

__all__ = ["WindowStats", "windowed_aggregates"]


@dataclass
class WindowStats:
    """Aggregates of one (window, channel) bucket."""

    t0: float
    t1: float
    group: int
    """Channel id."""

    offered: int = 0
    """Packets entering the pipeline in this window (by receipt time)."""

    delivered: int = 0
    medium_drops: int = 0
    transport_drops: int = 0
    bits_delivered: int = 0
    _delays: list = field(default_factory=list, repr=False)

    # -- derived ------------------------------------------------------------

    @property
    def loss_rate(self) -> float:
        total = self.offered
        if total == 0:
            return 0.0
        return (self.medium_drops + self.transport_drops) / total

    @property
    def throughput_bps(self) -> float:
        width = self.t1 - self.t0
        return self.bits_delivered / width if width > 0 else 0.0

    @property
    def mean_delay(self) -> Optional[float]:
        if not self._delays:
            return None
        return sum(self._delays) / len(self._delays)

    @property
    def jitter(self) -> Optional[float]:
        """:func:`~repro.stats.metrics.mean_abs_step` of the delays in
        record order."""
        return mean_abs_step(self._delays)

    def as_dict(self) -> dict:
        return {
            "t0": self.t0,
            "t1": self.t1,
            "group": self.group,
            "offered": self.offered,
            "delivered": self.delivered,
            "medium_drops": self.medium_drops,
            "transport_drops": self.transport_drops,
            "loss_rate": self.loss_rate,
            "throughput_bps": self.throughput_bps,
            "mean_delay": self.mean_delay,
            "jitter": self.jitter,
        }


def _bucket_time(record: PacketRecord) -> Optional[float]:
    """Window placement: receipt time, falling back to any stamp."""
    for t in (record.t_receipt, record.t_forward,
              record.t_delivered, record.t_origin):
        if t is not None:
            return t
    return None


def windowed_aggregates(
    dataset: RunDataset, *, window: float = 1.0
) -> list[WindowStats]:
    """Bucket the packet log into ``window``-second, per-channel groups.

    Returns buckets ordered by (t0, channel); empty buckets are omitted.
    """
    if window <= 0:
        raise AnalysisError(f"window must be positive, got {window}")
    start, _end = dataset.time_range()
    buckets: dict[tuple[int, int], WindowStats] = {}
    for record in dataset.packets:
        t = _bucket_time(record)
        if t is None:
            continue
        idx = int(math.floor((t - start) / window))
        key = record.channel
        bucket = buckets.get((idx, key))
        if bucket is None:
            bucket = WindowStats(
                t0=start + idx * window,
                t1=start + (idx + 1) * window,
                group=key,
            )
            buckets[(idx, key)] = bucket
        bucket.offered += 1
        if record.dropped:
            if record.drop_reason in DropReason.TRANSPORT:
                bucket.transport_drops += 1
            else:
                bucket.medium_drops += 1
        else:
            bucket.delivered += 1
            bucket.bits_delivered += record.size_bits
            if (
                record.t_delivered is not None
                and record.t_origin is not None
            ):
                bucket._delays.append(
                    record.t_delivered - record.t_origin
                )
    return [
        buckets[k]
        for k in sorted(
            buckets, key=lambda k: (k[0], repr(k[1]))
        )
    ]
