"""Sampled pipeline tracing through the paper's §3.2 Steps 1–7.

A :class:`PipelineTracer` samples one in ``sample_every`` ingested frames
and follows the sampled frame through every stage of the forwarding
pipeline, recording a per-stage duration:

========  =================  ==============================================
step      stage name         measured interval
========  =================  ==============================================
1         ``receive``        transport frame handling (decode → ingest)
2         ``neighbor_lookup``  channel-indexed neighbor-table fan-out read
3         ``drop_decision``  loss draws + ``t_forward`` computation
4         ``schedule_push``  listing into the forward schedule
5         ``scan_wakeup``    ``actual_fire − t_forward`` — scheduler lag,
                             the real-time deadline slack
6         ``send``           delivery callback (outbox enqueue / dispatch)
7         ``record``         recorder append for the flush batch
========  =================  ==============================================

Completed spans land in a bounded ring (``recent()``, the console's
``trace`` command), are optionally persisted through the
:class:`~repro.core.recording.Recorder` (``sink``) so replay can
reconstruct pipeline timing, and feed the per-stage duration histogram
(``stage_hist``) when one is bound.

Cost model: the *unsampled* path pays exactly one counter decrement in
:meth:`maybe_start` per ingest (the countdown race between threads is
benign — it only jitters the effective sampling rate, never corrupts a
span).  All dict/lock traffic happens on sampled frames only.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["TraceSpan", "Trace", "PipelineTracer", "PIPELINE_STAGES",
           "IPC_STAGES", "format_span"]

PIPELINE_STAGES = (
    "receive",
    "neighbor_lookup",
    "drop_decision",
    "schedule_push",
    "scan_wakeup",
    "send",
    "record",
)
"""Canonical stage names, in pipeline order (§3.2 Steps 1–7)."""

IPC_STAGES = (
    "ipc_encode",
    "ipc_queue",
    "ipc_decode",
)
"""Cross-process stages prepended by the sharded cluster: wire-encode in
the parent, pipe dwell (worker receive stamp − batch send stamp), and
wire-decode in the worker.  A cluster-traced packet's span reads
``ipc_encode → ipc_queue → ipc_decode → receive → … → record``."""


@dataclass(frozen=True, slots=True)
class TraceSpan:
    """One completed sampled-packet trace."""

    trace_id: int
    source: int
    seqno: int
    channel: int
    sender: int
    receiver: Optional[int]
    t_start: float
    """Wall-clock time (``time.time``) the trace began."""
    outcome: str
    """``delivered``, a drop reason, or an eviction marker."""
    stages: tuple[tuple[str, float], ...]
    """Ordered ``(stage_name, duration_seconds)`` pairs."""
    t_forward: Optional[float] = None
    """Scheduled forward time (None when dropped before scheduling)."""
    lag: Optional[float] = None
    """Scheduler lag ``actual_fire − t_forward`` (the deadline metric)."""

    def stage_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.stages)

    def duration(self) -> float:
        """Total measured pipeline time across all stages."""
        return sum(d for _, d in self.stages)

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "source": self.source,
            "seqno": self.seqno,
            "channel": self.channel,
            "sender": self.sender,
            "receiver": self.receiver,
            "t_start": self.t_start,
            "outcome": self.outcome,
            "t_forward": self.t_forward,
            "lag": self.lag,
            "stages": [[n, d] for n, d in self.stages],
        }


class Trace:
    """A sampled packet's in-flight working record (mutable)."""

    __slots__ = (
        "trace_id", "t_start", "source", "seqno", "channel", "sender",
        "receiver", "t_forward", "lag", "stages",
    )

    def __init__(self, trace_id: int) -> None:
        self.trace_id = trace_id
        self.t_start = time.time()
        self.source = -1
        self.seqno = -1
        self.channel = -1
        self.sender = -1
        self.receiver: Optional[int] = None
        self.t_forward: Optional[float] = None
        self.lag: Optional[float] = None
        self.stages: list[tuple[str, float]] = []

    def bind(self, sender, packet) -> None:
        """Attach packet identity (called by the first pipeline layer
        that has the decoded packet in hand)."""
        self.sender = int(sender)
        self.source = int(packet.source)
        self.seqno = int(packet.seqno)
        self.channel = int(packet.channel)

    def stage(self, name: str, duration: float) -> None:
        self.stages.append((name, duration))

    @property
    def key(self) -> tuple[int, int]:
        """In-flight correlation key: (source, seqno)."""
        return (self.source, self.seqno)


class PipelineTracer:
    """Sampling trace collector shared by one deployment's pipeline."""

    def __init__(
        self,
        sample_every: int = 128,
        capacity: int = 512,
        max_inflight: int = 1024,
        sink: Optional[Callable[[TraceSpan], None]] = None,
    ) -> None:
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.sample_every = int(sample_every)
        self.max_inflight = max(int(max_inflight), 1)
        self.sink = sink
        self.stage_hist = None  # bound by Telemetry: labels=("stage",)
        #: True once a transport layer owns the sampling decision, so the
        #: engine must not double-sample (see ForwardingEngine.ingest).
        self.delegated = False
        # Sample the very first frame, then one in every sample_every.
        self._countdown = 1
        self._ids = itertools.count(1)
        self._inflight: dict[tuple[int, int], Trace] = {}
        self._recent: deque[TraceSpan] = deque(maxlen=max(int(capacity), 1))
        self._lock = threading.Lock()
        self.sampled = 0
        self.completed = 0
        self.evicted = 0

    # -- sampling (the only hot-path entry point) ------------------------------

    def maybe_start(self) -> Optional[Trace]:
        """1-in-N sampling decision; returns a live Trace or None.

        Unsynchronized on purpose: a racing decrement merely perturbs
        the sampling interval.  The first call always samples, so every
        run yields at least one span.
        """
        self._countdown -= 1  # poem: ignore[POEM008] — see docstring
        if self._countdown > 0:
            return None
        self._countdown = self.sample_every  # poem: ignore[POEM008]
        self.sampled += 1
        return Trace(next(self._ids))

    # -- ingest-side completion -------------------------------------------------

    def commit(self, trace: Trace, scheduled, drops) -> None:
        """Called at the end of ingest: park the trace for the flush
        stages when anything was scheduled, otherwise finalize it with
        the drop outcome."""
        if scheduled:
            trace.t_forward = scheduled[0].t_forward
            self.park(trace)
        else:
            outcome = drops[-1][1] if drops else "no-neighbors"
            self.finalize(trace, outcome)

    def park(self, trace: Trace) -> None:
        """Hold a sampled trace in the inflight table until a later
        pipeline layer finalizes it — the flush stages in-process, or
        the worker-span merge when the cluster parent owns the trace."""
        with self._lock:
            while len(self._inflight) >= self.max_inflight:
                _, stale = self._inflight.popitem()
                self.evicted += 1
                self._finalize_locked(stale, "trace-evicted")
            self._inflight[trace.key] = trace

    # -- flush-side lookup ------------------------------------------------------

    @property
    def active(self) -> bool:
        """True when any sampled packet awaits its flush stages (lets
        the scan path skip per-entry key construction entirely)."""
        return bool(self._inflight)

    def inflight_pop(self, key: tuple[int, int]) -> Optional[Trace]:
        with self._lock:
            return self._inflight.pop(key, None)

    # -- finalization -----------------------------------------------------------

    def finalize(self, trace: Trace, outcome: str) -> None:
        with self._lock:
            self._finalize_locked(trace, outcome)

    def _finalize_locked(self, trace: Trace, outcome: str) -> None:
        span = TraceSpan(
            trace_id=trace.trace_id,
            source=trace.source,
            seqno=trace.seqno,
            channel=trace.channel,
            sender=trace.sender,
            receiver=trace.receiver,
            t_start=trace.t_start,
            outcome=outcome,
            stages=tuple(trace.stages),
            t_forward=trace.t_forward,
            lag=trace.lag,
        )
        self._emit_locked(span)

    def complete_span(self, span: TraceSpan) -> None:
        """Adopt an externally assembled span (the cluster parent merges
        parent-side IPC stages with a worker's shipped-back span and
        feeds the result here so ring/histogram/sink see one contiguous
        cross-process trace)."""
        with self._lock:
            self._emit_locked(span)

    def _emit_locked(self, span: TraceSpan) -> None:
        self._recent.append(span)
        self.completed += 1
        hist = self.stage_hist
        if hist is not None:
            try:
                for name, dur in span.stages:
                    hist.labels(name).observe(dur)
            # Telemetry boundary: metrics must never break the pipeline.
            except Exception:  # poem: ignore[POEM005]
                pass
        sink = self.sink
        if sink is not None:
            try:
                sink(span)
            # Telemetry boundary: a broken recorder sink must never
            # break the pipeline it observes.
            except Exception:  # poem: ignore[POEM005]
                pass

    # -- introspection ----------------------------------------------------------

    def recent(self, n: Optional[int] = None) -> list[TraceSpan]:
        """The most recent completed spans, oldest first."""
        with self._lock:
            spans = list(self._recent)
        return spans if n is None else spans[-n:]

    def clear(self) -> None:
        with self._lock:
            self._recent.clear()
            self._inflight.clear()


def format_span(span: TraceSpan) -> str:
    """Render one span as the console's ``trace`` command line block."""
    head = (
        f"trace #{span.trace_id}  src={span.source} seq={span.seqno} "
        f"ch={span.channel} sender={span.sender}"
        + (f" recv={span.receiver}" if span.receiver is not None else "")
        + f"  outcome={span.outcome}"
    )
    if span.lag is not None:
        head += f"  lag={span.lag * 1e6:.1f}us"
    lines = [head]
    for name, dur in span.stages:
        lines.append(f"    {name:<16} {dur * 1e6:10.2f} us")
    lines.append(f"    {'total':<16} {span.duration() * 1e6:10.2f} us")
    return "\n".join(lines)
