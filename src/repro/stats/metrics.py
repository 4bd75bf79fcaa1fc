"""Traffic statistics: the numbers PoEm's evaluation phase produces.

The paper's Phase 2 (performance evaluation for optimization) rests on
time-stamped packet records.  This module holds the per-record
summaries the run report and the experiments share — latency, jitter,
time-stamping error — and the **packet loss rate over time** of Fig 10,
measured from end-to-end sender/receiver probe logs over fixed windows
(parallel numpy arrays, ``t`` = window centers).  Windowed statistics
over a recording live in :mod:`repro.analysis.aggregates`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from ..core.packet import PacketRecord
from ..errors import ConfigurationError

__all__ = [
    "TimeSeries",
    "loss_rate_from_logs",
    "latency_stats",
    "LatencyStats",
    "stamp_errors",
    "mean_abs_step",
    "jitter_stats",
]


@dataclass(frozen=True)
class TimeSeries:
    """A windowed series: centers ``t`` and values ``v`` (same length)."""

    t: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        if self.t.shape != self.v.shape:
            raise ConfigurationError(
                f"misaligned series: {self.t.shape} vs {self.v.shape}"
            )

    def __len__(self) -> int:
        return len(self.t)


def _windows(t0: float, t1: float, window: float) -> np.ndarray:
    if window <= 0:
        raise ConfigurationError(f"window must be positive: {window}")
    if t1 <= t0:
        raise ConfigurationError(f"empty interval [{t0}, {t1}]")
    edges = np.arange(t0, t1 + window * 1e-9, window)
    if edges[-1] < t1:
        edges = np.append(edges, t1)
    return edges


def loss_rate_from_logs(
    sent_log: Sequence[tuple[float, int]],
    received_seqnos: set[int],
    t0: float,
    t1: float,
    window: float,
) -> TimeSeries:
    """End-to-end loss from sender/receiver probe logs.

    ``sent_log`` is the generator's ``(time, seqno)`` list; a probe is
    lost if its seqno never reached the receiver.  This is the
    measurement an experimenter without server access would make — the
    Fig 10 "Experiment" curve.
    """
    edges = _windows(t0, t1, window)
    offered = np.zeros(len(edges) - 1)
    lost = np.zeros(len(edges) - 1)
    for t, seqno in sent_log:
        if not (t0 <= t < t1):
            continue
        i = min(int((t - t0) / window), len(offered) - 1)
        offered[i] += 1
        if seqno not in received_seqnos:
            lost[i] += 1
    centers = 0.5 * (edges[:-1] + edges[1:])
    with np.errstate(invalid="ignore", divide="ignore"):
        rate = np.where(offered > 0, lost / np.maximum(offered, 1), np.nan)
    return TimeSeries(centers, rate)


@dataclass(frozen=True)
class LatencyStats:
    """Summary of per-packet transit latency."""

    count: int
    mean: float
    p50: float
    p95: float
    maximum: float


def latency_stats(records: Iterable[PacketRecord]) -> Optional[LatencyStats]:
    """Origin→delivery latency summary over delivered records."""
    lat = np.array(
        [
            r.t_delivered - r.t_origin
            for r in records
            if not r.dropped
            and r.t_delivered is not None
            and r.t_origin is not None
        ]
    )
    if lat.size == 0:
        return None
    return LatencyStats(
        count=int(lat.size),
        mean=float(lat.mean()),
        p50=float(np.percentile(lat, 50)),
        p95=float(np.percentile(lat, 95)),
        maximum=float(lat.max()),
    )


def mean_abs_step(values: Sequence[float]) -> Optional[float]:
    """Mean absolute difference of consecutive values — RFC-3550-style
    jitter over a delay sequence.  None for fewer than two values."""
    if len(values) < 2:
        return None
    steps = [abs(b - a) for a, b in zip(values, values[1:])]
    return sum(steps) / len(steps)


def jitter_stats(records: Iterable[PacketRecord]) -> Optional[float]:
    """Mean inter-arrival jitter of a delivered flow: the
    :func:`mean_abs_step` of one-way latencies over delivered records
    in sequence-number order.  None when fewer than two deliveries."""
    flow = sorted(
        (
            r
            for r in records
            if not r.dropped
            and r.t_delivered is not None
            and r.t_origin is not None
        ),
        key=lambda r: r.seqno,
    )
    return mean_abs_step([r.t_delivered - r.t_origin for r in flow])


def stamp_errors(
    records: Iterable[PacketRecord],
) -> np.ndarray:
    """Per-record ``t_receipt - t_origin`` — the time-stamping error.

    For PoEm (client-stamped receipt) this is ~0 by construction; for the
    serialized JEmu-style baseline it grows with contention — the Fig 2
    phenomenon, quantified.
    """
    return np.array(
        [
            r.t_receipt - r.t_origin
            for r in records
            if r.t_receipt is not None and r.t_origin is not None
        ]
    )
