"""The per-deployment telemetry bundle: registry + tracer, pre-wired.

One :class:`Telemetry` instance belongs to one deployment
(:class:`~repro.core.tcpserver.PoEmServer` or
:class:`~repro.core.server.InProcessEmulator`); both create an enabled
bundle by default and thread it through the engine, schedule, transport
and recorder.  Pass ``Telemetry.disabled()`` (or construct components
with ``telemetry=None``) to strip the instrumentation back to bare
guards — the benchmark-guarded "telemetry disabled ≈ free" property.

The bundle also owns the **metric catalog** for the forwarding pipeline
(see docs/observability.md): engine totals are mirrored through
zero-cost callback counters, drop reasons / wire encodings through
labelled counter families, and the scheduler-lag + per-stage duration
histograms use the fixed log-scale bucket layout.
"""

from __future__ import annotations

from typing import Optional

from .metrics import MetricsRegistry, SnapshotMerger
from .tracing import PipelineTracer

__all__ = ["Telemetry"]


class Telemetry:
    """Metrics registry + pipeline tracer for one deployment."""

    #: Default sampling interval: one traced packet per N ingests.
    DEFAULT_SAMPLE_EVERY = 128

    def __init__(
        self,
        *,
        enabled: bool = True,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
        trace_capacity: int = 512,
        namespace: str = "poem",
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.enabled = enabled
        self.registry = (
            registry if registry is not None else MetricsRegistry(namespace)
        )
        # Eager, not lazy: every fold must share one merger or its delta
        # bookkeeping double-counts.
        self._merger: Optional[SnapshotMerger] = (
            SnapshotMerger(self.registry) if enabled else None
        )
        self.tracer: Optional[PipelineTracer] = (
            PipelineTracer(
                sample_every=sample_every, capacity=trace_capacity
            )
            if enabled
            else None
        )
        if enabled:
            # The per-stage pipeline histogram is fed by the tracer on
            # span completion (sampled packets only).
            self.tracer.stage_hist = self.registry.histogram(
                "poem_pipeline_stage_seconds",
                "Per-stage duration of sampled packets through the "
                "Steps 1-7 pipeline",
                labels=("stage",),
            )

    @classmethod
    def disabled(cls) -> "Telemetry":
        """A no-op bundle: empty registry, no tracer, no hot-path cost."""
        return cls(enabled=False)

    # -- convenience -----------------------------------------------------------

    def render(self) -> str:
        """Prometheus text snapshot (the ``/metrics`` body)."""
        return self.registry.render()

    def snapshot(self) -> dict:
        """JSON-friendly snapshot of every metric."""
        return self.registry.snapshot()

    def recent_spans(self, n: Optional[int] = None):
        """Recent completed pipeline spans (empty when disabled)."""
        return self.tracer.recent(n) if self.tracer is not None else []

    def fold_snapshot(self, source: object, snap: Optional[dict]) -> int:
        """Merge another process's registry snapshot into this bundle
        (the cluster parent's worker-telemetry import; see
        :class:`~repro.obs.metrics.SnapshotMerger` for the semantics).
        No-op when disabled or ``snap`` is None; returns samples folded.
        """
        if self._merger is None or not snap:
            return 0
        return self._merger.fold(source, snap)

    def forget_source(self, source: object) -> None:
        """``source`` of :meth:`fold_snapshot` restarted: its next
        snapshot folds in whole
        (:meth:`~repro.obs.metrics.SnapshotMerger.forget`)."""
        if self._merger is not None:
            self._merger.forget(source)
