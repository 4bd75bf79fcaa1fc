"""The shard worker process of the sharded cluster.

One worker = one OS process whose state is a
:class:`~repro.core.forwarding.ForwardingCore` on a private
:class:`~repro.core.clock.VirtualClock` — the same scene → neighbor
tables → overload controller → engine wiring the in-process emulator
and the TCP server run — fed a shard of senders over a pipe (see
:mod:`repro.cluster.ipc` for the frame flavors).  The worker's event
loop is strictly reactive:

* a **packet batch** runs each frame's clock up to its client stamp
  (firing any flush callbacks that fell due), then enters the core's
  virtual-clock ingest, exactly like an in-process host's frame; frames
  carrying a parent-sampled trace id continue their pipeline trace
  here, with the cross-process ``ipc_queue`` / ``ipc_decode`` stages
  recorded first;
* ``scene_snapshot`` swaps in a freshly rebuilt scene replica through
  :meth:`~repro.core.forwarding.ForwardingCore.replace_scene` (stale
  versions are ignored, so replication is idempotent) — the bootstrap,
  and the carrier of every scene change that is not a node move.  The
  engine, its counters, deadline buckets and RNG position survive;
* ``scene_moves`` applies the parent's node moves to the live replica
  as one tick, so the neighbor tables refresh incrementally (one mover)
  or per channel, vectorized (several) instead of being rebuilt;
* ``flush`` runs the clock to the barrier time and acks with the
  worker's **sample** (:meth:`_WorkerState.sample`): the core's health
  sections (pipeline counters, schedule depth, overload snapshot,
  deadline buckets) plus the shard fields — frames ingested, the
  process's busy fraction and, when those planes are on, the registry
  snapshot, the trace spans completed since the last sample and the
  profiler snapshot, for the parent's cluster-wide merge;
* ``collect`` answers with the same sample as a ``worker_report`` and
  drains the packet log into the binary record frame sent right after;
* ``shutdown`` acks ``bye`` and exits the loop.

Observability: when :attr:`WorkerConfig.telemetry_enabled` the worker
builds a full :class:`~repro.obs.telemetry.Telemetry` bundle whose
tracer runs *delegated* — the parent owns the 1-in-N sampling decision
and worker trace ids are the parent's, so merged cluster spans are
contiguous; otherwise its telemetry is disabled outright.  Every worker
also keeps a :class:`~repro.obs.flightrec.FlightRecorder`; on a
pipeline failure the last seconds of events/spans are dumped to a JSON
artifact whose path rides the ``worker_error`` frame back to the
parent.  When :attr:`WorkerConfig.profile_hz` is set the core's
:class:`~repro.obs.profiler.SamplingProfiler` runs in the worker; its
cumulative folded-stack snapshot rides every sample and is
delta-merged parent-side so one profile covers the whole cluster.

Time discipline: the worker's virtual clock is driven **entirely by the
client stamps on incoming frames** (the paper's parallel time-stamping,
doing double duty as the cluster's logical clock).  The per-shard clocks
therefore advance independently between barriers — cross-shard
coherence is restored at merge time by the parent (and audited by the
forensics plane's cross-shard detector).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Optional

from ..core.clock import VirtualClock
from ..core.forwarding import ForwardingCore, release_profiler
from ..core.geometry import Vec2
from ..core.ids import NodeId
from ..core.overload import DEFAULT_LAG_BUDGET
from ..core.packet import PacketRow
from ..core.recording import MemoryRecorder
from ..net.messages import (
    decode_message,
    decode_packet_binary,
    encode_message,
    make_flushed,
    make_worker_error,
    make_worker_report,
)
from ..obs.flightrec import FlightRecorder, set_default
from ..obs.telemetry import Telemetry
from ..obs.tracing import Trace
from . import ipc

__all__ = ["WorkerConfig", "worker_main"]


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs at birth (picklable for spawn starts)."""

    worker_index: int
    n_workers: int
    seed: Optional[int] = 0
    schedule_capacity: Optional[int] = None
    telemetry_enabled: bool = False
    sample_every: int = Telemetry.DEFAULT_SAMPLE_EVERY
    flight_dir: Optional[str] = None
    #: Sampling-profiler rate (Hz); None runs the worker unprofiled.
    profile_hz: Optional[float] = None

    @property
    def engine_seed(self) -> int | list[int] | None:
        """The seed of the worker core's RNG.

        A 1-worker cluster uses ``seed`` itself — bit-identical to
        :class:`~repro.core.server.InProcessEmulator`'s engine stream,
        which is what makes the seeded-equivalence test exact.  Multiple
        workers draw from per-worker child streams (``[seed, index]``)
        so shards are decorrelated but still reproducible run-to-run.
        """
        if self.seed is None or self.n_workers == 1:
            return self.seed
        return [self.seed, self.worker_index]


class _WorkerState(ForwardingCore):
    """The mutable half of a worker: a forwarding core on the shard's
    virtual clock, plus the replica version and the shard's counters."""

    clock: VirtualClock

    def __init__(
        self,
        config: WorkerConfig,
        flight: Optional[FlightRecorder] = None,
    ) -> None:
        self.scene_version = -1
        self.shard_ingested = 0
        self.busy_seconds = 0.0
        self.started_at = time.perf_counter()
        self.flight = flight or FlightRecorder(
            role=f"worker-{config.worker_index}",
            flight_dir=config.flight_dir,
        )
        #: Completed spans awaiting ship-back (drained by every sample).
        self.spans: list[Any] = []
        telemetry = Telemetry.disabled()
        if config.telemetry_enabled:
            telemetry = Telemetry(
                enabled=True, sample_every=max(int(config.sample_every), 1)
            )
            tracer = telemetry.tracer
            # Per-stage durations are histogrammed exactly once — by the
            # parent, on the *merged* span — so the worker ships raw
            # spans and leaves its own stage histogram unfed.
            tracer.stage_hist = None
            # Buffer spans for ship-back instead of recording locally
            # (set before engine wiring, which only binds a None sink).
            tracer.sink = self._buffer_span
        # The replica arrives with the first snapshot; until then the
        # core runs on an empty scene nothing is ingested against.
        super().__init__(
            VirtualClock(),
            role=f"worker-{config.worker_index}",
            seed=config.engine_seed,
            bounds=None,
            recorder=None,
            schedule_capacity=config.schedule_capacity,
            telemetry=telemetry,
            lag_budget=DEFAULT_LAG_BUDGET,
            profile_hz=config.profile_hz,
        )

    def _buffer_span(self, span: Any) -> None:
        self.spans.append(span)
        self.flight.note_span(span)

    # -- scene replication ----------------------------------------------------

    def apply_snapshot(self, version: int, raw_scene: dict[str, Any]) -> None:
        from .snapshot import build_scene  # local: keeps import cycle away

        if version < self.scene_version:
            return  # stale replica, a newer one already landed
        scene = build_scene(raw_scene)
        self._catch_up(scene.time)
        self.replace_scene(scene)
        self.scene_version = version

    def apply_moves(
        self, version: int, t: float, moves: list[list[Any]]
    ) -> None:
        """Apply a ``scene_moves`` frame to the live replica as one tick."""
        self._require_replica("scene moves")
        self._catch_up(t)
        self.scene.move_nodes(
            [(NodeId(int(n)), Vec2(float(x), float(y))) for n, x, y in moves]
        )
        self.scene_version = version

    def _require_replica(self, what: str) -> None:
        if self.scene_version < 0:
            raise ClusterWorkerError(
                f"{what} received before any scene snapshot"
            )

    def _catch_up(self, scene_time: float) -> None:
        # The parent's scene time may be ahead of this shard's stamp-driven
        # clock; catch the clock up so scene time never runs backwards.
        if scene_time > self.clock.now():
            self.clock.run_until(scene_time)

    # -- pipeline -------------------------------------------------------------

    def ingest_batch(
        self, entries: list[tuple[bytes, int]], t_sent: float
    ) -> None:
        self._require_replica("packet batch")
        clock = self.clock
        tracing = self._tracer is not None
        # One dwell measurement serves the whole batch: every frame in
        # it sat in the same pipe for the same interval.
        dwell = max(time.time() - t_sent, 0.0) if tracing else 0.0
        for frame, trace_id in entries:
            tr = None
            if trace_id and tracing:
                tr = Trace(trace_id)
                tr.stage("ipc_queue", dwell)
                t0 = time.perf_counter()
                _op, packet = decode_packet_binary(frame)
                tr.stage("ipc_decode", time.perf_counter() - t0)
                tr.bind(packet.source, packet)
            else:
                _op, packet = decode_packet_binary(frame)
            t = packet.t_origin
            if t is not None and t > clock.now():
                clock.run_until(t)
            self._virtual_ingest(packet.source, packet, tr)
        self.shard_ingested += len(entries)

    def flush_to(self, t: float) -> None:
        self.clock.run_until(max(t, self.clock.now()))
        self.engine.flush_due(self.clock.now())

    # -- reporting ------------------------------------------------------------

    def sample(self) -> dict[str, Any]:
        """The health/telemetry sample every reply to the parent
        carries: the core's health sections plus the shard fields
        (:func:`repro.net.messages._with_sample`).  Taking it drains
        the completed-span buffer — the same drain discipline as the
        packet log."""
        wall = time.perf_counter() - self.started_at
        tele, prof = self.telemetry, self.profiler
        spans = None
        if tele.enabled:
            spans = [ipc.span_to_row(s) for s in self.spans]
            self.spans = []
        return {
            **self._core_health(),
            "busy_fraction": self.busy_seconds / wall if wall > 0 else 0.0,
            "shard_ingested": self.shard_ingested,
            "telemetry": tele.snapshot() if tele.enabled else None,
            "spans": spans,
            "profile": prof.snapshot() if prof is not None else None,
        }

    def drain_rows(self) -> list[PacketRow]:
        """Take and clear the packet log's rows (collect is a drain, so a
        second collect never double-reports)."""
        rows = self.recorder.rows()
        self.recorder = self.engine.recorder = MemoryRecorder()
        return rows


class ClusterWorkerError(Exception):
    """Worker-side pipeline failure (reported to the parent, then raised)."""


def worker_main(conn, config: WorkerConfig) -> None:
    """Entry point of one shard worker process.

    ``conn`` is the child end of the parent's pipe.  The loop exits on
    ``shutdown``, on pipe EOF (parent died), or on a pipeline error —
    which is first reported as a ``worker_error`` control frame (with
    the flight-recorder artifact path) so the parent can raise it as
    :class:`~repro.errors.ClusterError` instead of timing out.
    """
    # The crash hook goes in before anything expensive: a SIGTERM that
    # lands during state construction must still produce an artifact.
    flight = FlightRecorder(
        role=f"worker-{config.worker_index}",
        flight_dir=config.flight_dir,
    )
    # This process belongs to the worker: its flight recorder becomes
    # the default so structured log events land in the crash ring too.
    set_default(flight)
    flight.install_sigterm()
    flight.note("worker-start", worker=config.worker_index)
    state = _WorkerState(config, flight=flight)
    if state.profiler is not None:
        state.profiler.start()
    try:
        while True:
            try:
                data = conn.recv_bytes()
            except (EOFError, OSError):
                break
            t0 = time.perf_counter()
            if ipc.is_packet_batch(data):
                entries, t_sent = ipc.decode_packet_batch(data)
                state.ingest_batch(entries, t_sent)
                state.busy_seconds += time.perf_counter() - t0
                continue
            msg = decode_message(data)
            op = msg["op"]
            if op == "scene_snapshot":
                state.apply_snapshot(int(msg["version"]), msg["scene"])
                state.flight.note(
                    "scene-snapshot", version=int(msg["version"])
                )
            elif op == "scene_moves":
                state.apply_moves(
                    int(msg["version"]), float(msg["t"]), msg["moves"]
                )
                state.flight.note(
                    "scene-moves", version=int(msg["version"]),
                    moves=len(msg["moves"]),
                )
            elif op == "flush":
                state.flush_to(float(msg["t"]))
                reply = make_flushed(
                    int(msg["id"]), config.worker_index, **state.sample()
                )
                conn.send_bytes(encode_message(reply))
                state.flight.note(
                    "flush", t=float(msg["t"]),
                    shard_ingested=state.shard_ingested,
                )
            elif op == "collect":
                # Encoded first: a log that does not fit the frame must
                # surface as worker_error, not after a report went out.
                frame = ipc.encode_record_frame(state.drain_rows())
                report = make_worker_report(
                    config.worker_index, **state.sample()
                )
                conn.send_bytes(encode_message(report))
                conn.send_bytes(frame)
                state.flight.note(
                    "collect", shard_ingested=state.shard_ingested
                )
            elif op == "shutdown":
                conn.send_bytes(encode_message({"op": "bye"}))
                break
            else:
                raise ClusterWorkerError(f"unknown control op {op!r}")
            state.busy_seconds += time.perf_counter() - t0
    except Exception as exc:
        # Surface the failure to the parent before dying; losing it would
        # turn every worker bug into an opaque parent-side timeout.  The
        # flight dump happens first so the artifact path can ride along.
        state.flight.note("worker-error", error=repr(exc))
        artifact = state.flight.dump(reason=repr(exc))
        try:
            conn.send_bytes(
                encode_message(
                    make_worker_error(
                        config.worker_index, repr(exc), flight=artifact
                    )
                )
            )
        except (OSError, ValueError):
            pass  # parent already gone; the re-raise below still records it
        raise
    finally:
        release_profiler(state.profiler)
        conn.close()
