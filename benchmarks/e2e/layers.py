"""Per-layer probes for the forwarding core (layers = module names).

:class:`CoreProbe` wraps the public functions of one deployment's
``core.engine`` / ``core.neighbor`` / ``core.scene`` / ``core.scheduler`` /
``core.recording`` / ``core.clock`` instances and turns the spans and
boundary counts into the ``core.*`` and ``obs.tracing.stage.*`` metrics.
The TCP launcher and the in-process workloads share it, so a metric means
the same thing on every deployment; a layer a deployment does not run
reads 0.
"""

from __future__ import annotations

from typing import Any, Optional

from spans import SpanLog, stat
from summary import per, percentile

PIPELINE_STAGES = (
    "receive", "neighbor_lookup", "drop_decision", "schedule_push",
    "scan_wakeup", "send", "record", "ipc_encode", "ipc_queue",
    "ipc_decode",
)


def _packet_request(args: tuple):
    packet = args[1]
    return (int(packet.source), int(packet.seqno))


class CoreProbe:
    """Wrappers + boundary counts around one forwarding core."""

    def __init__(
        self,
        log: SpanLog,
        *,
        engine: Any,
        neighbors: Any,
        scene: Any,
        recorder: Any,
        overload: Any,
        clock: Optional[Any] = None,
        realtime: bool = False,
    ) -> None:
        self.log = log
        self.engine = engine
        self.neighbors = neighbors
        self.scene = scene
        self.overload = overload
        self.clock = clock
        self._last_fanout: dict[tuple, Any] = {}
        self.begin()  # creates the boundary-count containers

        log.wrap(engine, "ingest", "core.engine.ingest", request=_packet_request)
        if realtime:
            log.wrap(engine, "flush_wait", "core.engine.flush",
                     observe=self._saw_flush)
            log.wrap(engine.schedule, "wait_due", "core.scheduler.wait_due",
                     observe=self._saw_harvest)
        else:
            log.wrap(engine, "flush_due", "core.engine.flush",
                     observe=self._saw_flush)
        log.wrap(neighbors, "fanout", "core.neighbor.fanout",
                 observe=self._saw_fanout)
        log.wrap(scene, "advance_time", "core.scene.advance")
        log.wrap(engine.schedule, "push_many", "core.scheduler.push",
                 observe=self._saw_push)
        log.wrap(recorder, "record_many", "core.recording.record",
                 observe=self._saw_record_many)
        log.wrap(recorder, "record_packet", "core.recording.record",
                 observe=self._saw_record_one)
        if clock is not None:
            # The virtual clock is the in-process deployments' timer
            # wheel: run_until's self time is heap pops and dispatch,
            # call_at one heap push per scheduled entry.
            log.wrap(clock, "run_until", "core.clock.run_until")
            log.wrap(clock, "call_at", "core.clock.call_at")

    # -- boundary observers (run after the timed interval) -------------------

    def _saw_flush(self, _args: tuple, delivered: int) -> None:
        self.flush_counts.append(delivered)

    def _saw_harvest(self, _args: tuple, due: list) -> None:
        if due:
            now = self.engine.clock.now()
            self.harvest_lags.extend(now - e.t_forward for e in due)

    def _saw_fanout(self, args: tuple, fan: Any) -> None:
        # A hit hands back the very Fanout object it returned last time
        # for this (node, channel); a rebuilt one is a new object.
        if self._last_fanout.get(args) is fan:
            self.fanout_hits += 1
        else:
            self._last_fanout[args] = fan

    def _saw_push(self, args: tuple, _accepted: int) -> None:
        self.push_entries += len(args[0])
        self.push_depths.append(len(self.engine.schedule))

    def _saw_record_many(self, args: tuple, _result: Any) -> None:
        self.records += len(args[0])

    def _saw_record_one(self, _args: tuple, _result: Any) -> None:
        self.records += 1

    # -- phase control -------------------------------------------------------

    def begin(self) -> None:
        """Start of the timed phase: forget warm-up calls, pin counters."""
        self.log.reset_stats()
        self.flush_counts: list[int] = []
        self.harvest_lags: list[float] = []
        self.push_depths: list[int] = []
        self.push_entries = 0
        self.fanout_hits = 0
        self.records = 0
        e = self.engine
        self._base = {
            "ingested": e.ingested,
            "forwarded": e.forwarded,
            "dropped": e.dropped,
            "version": self.scene.version,
            "units": self.neighbors.stats.units_touched,
            "events": self.neighbors.stats.events,
            "overload": self.overload.snapshot(),
        }

    def metrics(self, wall_s: float, telemetry: Any) -> dict[str, float]:
        """The ``core.*`` and ``obs.tracing.stage.*`` metrics of the
        phase that started at the last :meth:`begin`."""
        layers = self.log.layers()

        def layer(name: str) -> dict[str, float]:
            return {
                key: stat(layers, name, key)
                for key in ("calls", "total_s", "self_s", "mean_us", "p99_us")
            }

        e, base = self.engine, self._base
        ingest = layer("core.engine.ingest")
        flush = layer("core.engine.flush")
        wait = layer("core.scheduler.wait_due")
        fan = layer("core.neighbor.fanout")
        push = layer("core.scheduler.push")
        rec = layer("core.recording.record")
        delivered = sum(self.flush_counts)
        flushes = len(self.flush_counts)
        empty = sum(1 for n in self.flush_counts if n == 0)
        events = self.neighbors.stats.events - base["events"]
        over = self.overload.snapshot()
        out = {
            "core.engine.ingest_us": ingest["mean_us"],
            "core.engine.ingest_self_us":
                per(ingest["self_s"], ingest["calls"]) * 1e6,
            "core.engine.ingest_p99_us": ingest["p99_us"],
            # Host time spent delivering, not the real-time wait for the
            # deadline (flush_wait blocks inside wait_due).
            "core.engine.flush_us_per_delivery":
                per(flush["total_s"] - wait["total_s"], delivered) * 1e6,
            "core.engine.deliveries_per_flush": per(delivered, flushes),
            "core.engine.empty_flush_ratio": per(empty, flushes),
            "core.engine.ingested": e.ingested - base["ingested"],
            "core.engine.forwarded": e.forwarded - base["forwarded"],
            "core.engine.dropped": e.dropped - base["dropped"],
            "core.neighbor.fanout_us": fan["mean_us"],
            "core.neighbor.fanout_p99_us": fan["p99_us"],
            "core.neighbor.fanout_hit_ratio":
                per(self.fanout_hits, fan["calls"]),
            "core.neighbor.units_touched_per_event": per(
                self.neighbors.stats.units_touched - base["units"], events
            ),
            "core.scene.advance_us": layer("core.scene.advance")["mean_us"],
            "core.scene.version_bumps": self.scene.version - base["version"],
            "core.clock.timers_per_delivery":
                per(layer("core.clock.call_at")["calls"], delivered),
            "core.scheduler.push_us_per_entry":
                per(push["total_s"], self.push_entries) * 1e6,
            "core.scheduler.depth_p99": percentile(self.push_depths, 0.99),
            "core.scheduler.harvest_lag_p50_us":
                percentile(self.harvest_lags, 0.5) * 1e6,
            "core.scheduler.harvest_lag_p99_us":
                percentile(self.harvest_lags, 0.99) * 1e6,
            "core.scheduler.wait_share": per(wait["total_s"], wall_s),
            "core.recording.record_us_per_record":
                per(rec["total_s"], self.records) * 1e6,
            "core.recording.records": self.records,
        }
        out.update(overload_metrics(base["overload"], over))
        out.update(stage_metrics(telemetry))
        return out


def overload_metrics(before: dict, after: dict) -> dict[str, float]:
    """``core.overload.*`` over a phase from two controller snapshots."""
    return {
        "core.overload.transitions":
            after["transitions"] - before["transitions"],
        "core.overload.shed": after["shed"] - before["shed"],
        "core.overload.degraded_s":
            after["degraded_seconds"] - before["degraded_seconds"],
    }


def stage_metrics(telemetry: Any) -> dict[str, float]:
    """p50 of the program's own stage histograms, read as they are
    through the public registry (``sample_every=1`` in a traced run)."""
    out = {f"obs.tracing.stage.{s}_us": 0.0 for s in PIPELINE_STAGES}
    if telemetry is None or not telemetry.enabled:
        return out
    family = telemetry.registry.get("poem_pipeline_stage_seconds")
    if family is None:
        return out
    for child in family.children():
        stage = dict(child.label_values).get("stage")
        if stage in PIPELINE_STAGES and child.count():
            out[f"obs.tracing.stage.{stage}_us"] = child.percentile(0.5) * 1e6
    return out
