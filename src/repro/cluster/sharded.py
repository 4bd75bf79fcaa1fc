"""The real parallelized cluster: multi-process sharded forwarding plane.

This is the paper's §7 future work implemented with actual OS
parallelism.  The parent process owns the one consistent scene (§2.1's
centralized-architecture argument), a deterministic
:class:`~repro.cluster.shard.ShardMap`, and the recording plane;
``n_workers`` child processes each run a private
:class:`~repro.core.forwarding.ForwardingCore` — the in-process
emulator's, on a stamp-driven virtual clock — over a scene replica
(:mod:`repro.cluster.snapshot`).

Data flow per frame: the client stamps ``t_origin`` (parallel
time-stamping), the parent encodes the frame with the PR 2 binary wire
codec, batches it to the sender's shard (:mod:`repro.cluster.ipc`), and
the worker's stamp-driven clock replays the §3.2 pipeline.

Replication is a snapshot bootstrap plus deltas: every scene event is
queued as what changed, and the next submission ships it *before* any
newer traffic, so workers never forward against a stale topology
relative to the script's order.  Node moves go out as one small
``scene_moves`` frame the workers apply to their live replicas; every
other event (add/remove/retune/range/link/quarantine/restore — their
event details do not carry a whole radio) falls back to a full
version-stamped snapshot, which is also what (re)started workers get.

Synchronization points are explicit: :meth:`ShardedEmulator.flush` is a
barrier (run every shard to time ``t``; their health/telemetry samples
come back on the ack) and :meth:`ShardedEmulator.collect` drains every
worker's packet log (one binary record frame each), merges the rows in
event-time order, builds each record once with its parent-assigned id,
and records the ``cluster-run`` scene event the forensics plane keys
its cross-shard coherence audit on.

With ``n_workers=1`` the merge is a passthrough and the worker replays
the in-process emulator's exact clock discipline and RNG stream — the
seeded-equivalence contract that makes cluster runs trustworthy.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import time
from typing import Any, Optional

from ..core.clock import SyncSample
from ..core.forwarding import (
    make_profiler,
    record_run_summary,
    release_profiler,
    virtual_clients,
)
from ..core.geometry import Vec2
from ..core.ids import ChannelId, IdAllocator, NodeId
from ..core.overload import DEFAULT_LAG_BUDGET, OverloadState, fidelity_verdict
from ..core.packet import Packet, PacketRecord, PacketStamper
from ..core.recording import MemoryRecorder, Recorder
from ..core.scene import Scene, SceneEvent
from ..errors import ClusterError, ProtocolError, TransportError
from ..models.mobility import Bounds
from ..models.radio import RadioConfig
from ..net.messages import (
    decode_message,
    encode_message,
    encode_packet_binary,
    make_collect,
    make_flush,
    make_scene_moves,
    make_scene_snapshot,
    make_shutdown,
)
from ..obs import flightrec
from ..obs.flightrec import FlightRecorder
from ..obs.telemetry import Telemetry
from ..obs.tracing import TraceSpan
from . import ipc
from .shard import ShardMap
from .snapshot import snapshot_to_dict
from .worker import WorkerConfig, worker_main

__all__ = ["ShardedEmulator", "ShardedHost"]

#: How long (s) the parent waits on a worker ack before declaring it dead.
_REPLY_TIMEOUT = 60.0

#: Frames buffered per shard before ``submit`` ships them as one batch.
_BATCH_FRAMES = 32


class ShardedHost:
    """Parent-side handle for one VMN of a sharded run.

    Scripted-load counterpart of
    :class:`~repro.core.server.VirtualNodeHost`: it stamps and submits
    frames, but delivery happens inside the owning shard's process, so
    there is no local ``received`` list — delivered traffic comes back
    as records via :meth:`ShardedEmulator.collect`.
    """

    def __init__(self, emulator: "ShardedEmulator", node_id: NodeId) -> None:
        self._emulator = emulator
        self._node_id = node_id
        self._stamper = PacketStamper(node_id)

    @property
    def node_id(self) -> NodeId:
        return self._node_id

    @property
    def shard(self) -> int:
        return self._emulator.shards.shard_of(self._node_id)

    def now(self) -> float:
        return self._emulator.time

    def transmit(
        self,
        destination: NodeId,
        payload: bytes,
        *,
        channel: ChannelId,
        kind: str = "data",
        size_bits: Optional[int] = None,
        t: Optional[float] = None,
    ) -> Packet:
        """Stamp a frame at ``t`` (default: the cluster's current time)
        and submit it to this node's shard."""
        return self._emulator.transmit(
            self._node_id,
            destination,
            payload,
            channel=channel,
            kind=kind,
            size_bits=size_bits,
            t=t,
        )


class ShardedEmulator:
    """A multi-process cluster of shard workers behind one scene."""

    def __init__(
        self,
        *,
        n_workers: int = 4,
        seed: Optional[int] = 0,
        bounds: Optional[Bounds] = None,
        recorder: Optional[Recorder] = None,
        schedule_capacity: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        flight_dir: Optional[str] = None,
        profile_hz: Optional[float] = None,
    ) -> None:
        if n_workers < 1:
            raise ClusterError(f"need at least one worker, got {n_workers}")
        self.n_workers = n_workers
        self.seed = seed
        self.schedule_capacity = schedule_capacity
        self.scene = Scene(bounds=bounds, seed=seed)
        self.recorder = recorder if recorder is not None else MemoryRecorder()
        self.recorder.attach_to_scene(self.scene)
        self.shards = ShardMap(n_workers)
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        self._time = 0.0
        self.scene.bind_time_source(lambda: self._time)
        self._hosts: dict[NodeId, ShardedHost] = {}
        self._ids = IdAllocator()
        self._ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        self._procs: list[Any] = []
        self._conns: list[Any] = []
        #: Per-shard outbound buffers of ``(binary_frame, trace_id)``.
        self._buffers: list[list[tuple[bytes, int]]] = [
            [] for _ in range(n_workers)
        ]
        self._flush_ids = itertools.count(1)
        # What the workers' replicas are missing.  A leaf lock (taken
        # last on both sides: under the Scene lock in ``_mark_dirty``,
        # under ``_io_lock`` in ``_sync_scene``) makes the hand-off atomic.
        self._pending_lock = threading.Lock()
        #: node -> (x, y): moves not shipped yet; empty while a snapshot
        #: is due (the snapshot covers them).
        self._pending_moves: dict[int, tuple[float, float]] = {}
        #: Scene events no shipped frame covers that only a full
        #: snapshot can carry.  Starts at 1: nothing shipped yet.
        self._snapshot_due = 1
        self.scene.add_listener(self._mark_dirty)
        # One lock serializes every pipe exchange (sends *and* the
        # request/response barriers): frames of two callers' barriers or
        # batch sends must never interleave on a pipe, or the byte
        # stream itself would corrupt.
        self._io_lock = threading.RLock()
        self.flight = FlightRecorder(role="parent", flight_dir=flight_dir)
        self.flight_dir = flight_dir
        if flightrec.get_default() is None:
            flightrec.set_default(self.flight)
        # Continuous profiling: the parent runs its own sampler and
        # folds every worker's folded-stack snapshot into it, so
        # profile_collapsed() is one flamegraph of the whole cluster.
        self.profile_hz = float(profile_hz) if profile_hz else None
        self.profiler = make_profiler(self.profile_hz, "parent")
        #: Flight artifacts dumped on worker failure: worker → path.
        self.crash_artifacts: dict[int, str] = {}
        # Aggregate pipeline counters, refreshed on every barrier ack.
        self.ingested = 0
        self.forwarded = 0
        self.dropped = 0
        self.transport_dropped = 0
        #: Last barrier's per-worker samples (telemetry + health + docs).
        self.worker_stats = [_unsampled(i) for i in range(n_workers)]
        #: The last samples of workers a ``stop()`` retired: their work
        #: stays in the cluster's totals after a restart.
        self._retired: list[dict[str, Any]] = []
        self._m_depth = None
        self._m_busy = None
        self._m_shard_ingested = None
        self._last_shard_ingested = [0] * n_workers
        if self.telemetry.enabled:
            reg = self.telemetry.registry
            self._m_depth = reg.gauge(
                "poem_shard_queue_depth",
                "Forward-schedule depth of one shard worker at its last "
                "barrier",
                labels=("shard",),
            )
            self._m_busy = reg.gauge(
                "poem_shard_busy_fraction",
                "Fraction of wall-clock one shard worker spent processing",
                labels=("shard",),
            )
            self._m_shard_ingested = reg.counter(
                "poem_shard_ingested_total",
                "Frames ingested per shard worker",
                labels=("shard",),
            )
            # The parent owns the cluster's sampling decision: traces
            # start at submit() (stage ipc_encode), continue inside the
            # worker, and complete here when the worker ships the span
            # back.  delegated guards against any engine double-sampling
            # and the sink persists merged spans into trace_spans.
            tracer = self.telemetry.tracer
            tracer.delegated = True
            if tracer.sink is None:
                tracer.sink = self.recorder.record_span

    # -- scene bookkeeping ------------------------------------------------------

    def _mark_dirty(self, event: SceneEvent) -> None:
        # Every scene event reaches the replicas — including
        # quarantine/restore, which deliberately do NOT bump
        # Scene.version (the topology is unchanged), so a version
        # compare alone would under-replicate.  A structural
        # event supersedes the moves queued before it, and while a
        # snapshot is due later moves fold into it too.
        with self._pending_lock:
            if event.kind == "node-moved" and not self._snapshot_due:
                details = event.details
                self._pending_moves[int(event.node)] = (
                    details["x"], details["y"],
                )
            else:
                self._snapshot_due += 1
                self._pending_moves.clear()

    # -- topology construction --------------------------------------------------

    def add_node(
        self,
        position: Vec2,
        radios: RadioConfig,
        *,
        node_id: Optional[NodeId] = None,
        label: str = "",
    ) -> ShardedHost:
        """Create a VMN, place it on a shard, return its host handle."""
        if node_id is None:
            node_id = NodeId(self._ids.allocate())
        self.scene.add_node(node_id, position, radios, label=label)
        self.shards.place(node_id)
        host = ShardedHost(self, node_id)
        self._hosts[node_id] = host
        # Forensics parity with the in-process stack: the scripted-load
        # cluster's clients stamp with the cluster clock itself, so the
        # registration sync sample records an exact zero offset.
        self.recorder.record_sync(
            SyncSample(
                node=int(node_id),
                label=label,
                offset=0.0,
                delay=0.0,
                t_server=self._time,
                t_client=self._time,
                cause="register",
                residual=0.0,
            )
        )
        return host

    def remove_node(self, node_id: NodeId) -> None:
        self._hosts.pop(node_id, None)
        self.shards.release(node_id)
        if node_id in self.scene:
            self.scene.remove_node(node_id)

    def host(self, node_id: NodeId) -> ShardedHost:
        try:
            return self._hosts[node_id]
        except KeyError:
            raise ClusterError(f"no host for node {node_id}") from None

    def hosts(self) -> list[ShardedHost]:
        return list(self._hosts.values())

    # -- lifecycle ---------------------------------------------------------------

    @property
    def started(self) -> bool:
        return bool(self._procs)

    def start(self) -> None:
        """Spawn the shard workers and ship them the initial scene."""
        if self._procs:
            return
        sample_every = (
            self.telemetry.tracer.sample_every
            if self.telemetry.enabled
            else Telemetry.DEFAULT_SAMPLE_EVERY
        )
        for i in range(self.n_workers):
            parent_conn, child_conn = self._ctx.Pipe()
            config = WorkerConfig(
                worker_index=i,
                n_workers=self.n_workers,
                seed=self.seed,
                schedule_capacity=self.schedule_capacity,
                telemetry_enabled=self.telemetry.enabled,
                sample_every=sample_every,
                flight_dir=self.flight_dir,
                profile_hz=self.profile_hz,
            )
            proc = self._ctx.Process(
                target=worker_main,
                args=(child_conn, config),
                name=f"poem-shard-{i}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        self.flight.note("cluster-start", n_workers=self.n_workers)
        if self.profiler is not None:
            self.profiler.start()
        self._sync_scene()

    def stop(self) -> None:
        """Shut the workers down (graceful ``shutdown``/``bye``, then
        join; stragglers are terminated).  Idempotent."""
        if not self._procs:
            return
        release_profiler(self.profiler)
        self.flight.note("cluster-stop")
        bye = encode_message(make_shutdown())
        for conn in self._conns:
            try:
                conn.send_bytes(bye)
            except (OSError, ValueError, BrokenPipeError):
                continue  # worker already gone; join below cleans up
        for worker, conn in enumerate(self._conns):
            try:
                if not conn.poll(2.0):
                    continue
                msg = decode_message(conn.recv_bytes())
            except (EOFError, OSError, ValueError, ProtocolError):
                continue  # dying worker closed the pipe first — fine
            op = msg.get("op")
            if op == "worker_error":
                # A worker that crashed during shutdown still ships its
                # flight artifact — keep it for post-mortem analysis.
                self.flight.note(
                    "worker-shutdown-error",
                    worker=worker,
                    error=msg.get("error"),
                )
                if msg.get("flight"):
                    self.crash_artifacts[worker] = str(msg["flight"])
            elif op != "bye":
                self.flight.note(
                    "unexpected-shutdown-reply", worker=worker, op=op
                )
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in self._conns:
            conn.close()
        self._procs = []
        self._conns = []
        self._buffers = [[] for _ in range(self.n_workers)]
        # New workers count from zero: park the retiring ones' last
        # samples and forget the delta baselines their counters set.
        self._retired += [s for s in self.worker_stats if s["counters"]]
        self.worker_stats = [_unsampled(i) for i in range(self.n_workers)]
        self._last_shard_ingested = [0] * self.n_workers
        for worker in range(self.n_workers):
            self.telemetry.forget_source(worker)
            if self.profiler is not None:
                self.profiler.forget_remote(worker)
        # New workers bootstrap from a full snapshot, never stale moves.
        with self._pending_lock:
            self._snapshot_due += 1
            self._pending_moves.clear()

    def __enter__(self) -> "ShardedEmulator":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- the pipeline -------------------------------------------------------------

    @property
    def time(self) -> float:
        return self._time

    def transmit(
        self,
        node_id: NodeId,
        destination: NodeId,
        payload: bytes,
        *,
        channel: ChannelId,
        kind: str = "data",
        size_bits: Optional[int] = None,
        t: Optional[float] = None,
    ) -> Packet:
        """Client leg: origin-stamp a frame and route it to its shard."""
        host = self.host(node_id)
        if channel not in self.scene.channels_of(node_id):
            raise ProtocolError(
                f"node {node_id} has no radio on channel {channel}"
            )
        packet = host._stamper.make_packet(
            destination,
            payload,
            channel=channel,
            kind=kind,
            size_bits=size_bits,
            t_origin=self._time if t is None else t,
        )
        self.submit(packet)
        return packet

    def submit(self, packet: Packet) -> None:
        """Route one origin-stamped frame to its sender's shard worker.

        When telemetry is on, this is where cluster-wide traces start:
        the 1-in-N sampling decision happens here, the wire-encode is
        timed as the ``ipc_encode`` stage, and the trace parks in the
        parent tracer's inflight table under its ``(source, seqno)`` key
        until the worker ships the matching span back.
        """
        if not self._procs:
            self.start()
        self._sync_scene()
        shard = self.shards.shard_of(packet.source)
        tracer = self.telemetry.tracer if self.telemetry.enabled else None
        trace_id = 0
        if tracer is not None:
            tr = tracer.maybe_start()
            if tr is not None:
                t0 = time.perf_counter()
                frame = encode_packet_binary("packet", packet)
                tr.stage("ipc_encode", time.perf_counter() - t0)
                tr.bind(packet.source, packet)
                tracer.park(tr)
                trace_id = tr.trace_id
            else:
                frame = encode_packet_binary("packet", packet)
        else:
            frame = encode_packet_binary("packet", packet)
        buffer = self._buffers[shard]
        buffer.append((frame, trace_id))
        if len(buffer) >= _BATCH_FRAMES:
            self._send_batch(shard)

    def _send_to(self, worker: int, data: bytes) -> None:
        """One guarded pipe send.

        A closed pipe means the worker is already gone: that must
        surface through the worker-failure path (flight dump, crash
        artifact, ``ClusterError``) — never as a raw
        ``BrokenPipeError`` racing the barrier's own detection.  A
        worker that died of a pipeline error wrote ``worker_error``
        before it exited; that frame is still queued in the pipe, and
        its error and artifact path go into the failure.
        """
        try:
            self._conns[worker].send_bytes(data)
        except (OSError, ValueError) as exc:
            reason = f"shard worker {worker} pipe closed: {exc}"
            error = self._queued_error(worker)
            if error:
                reason = (f"shard worker {worker} failed: "
                          f"{error.get('error')} ({reason})")
            raise self._worker_failure(
                worker, reason, worker_flight=error.get("flight")
            ) from exc

    def _queued_error(self, worker: int) -> dict[str, Any]:
        """The ``worker_error`` frame left in a dead worker's pipe, or {}."""
        conn = self._conns[worker]
        try:
            while conn.poll(0.1):
                msg = decode_message(conn.recv_bytes())
                if msg.get("op") == "worker_error":
                    return msg
        except (EOFError, OSError, TransportError):
            pass  # drained to EOF with no worker_error in it
        return {}

    def _send_batch(self, shard: int) -> None:
        buffer = self._buffers[shard]
        if not buffer:
            return
        # The send stamp is wall-clock: both ends of the pipe share the
        # machine epoch, so the worker's recv−t_sent is real pipe dwell.
        with self._io_lock:
            self._send_to(
                shard, ipc.encode_packet_batch(buffer, time.time())
            )
        buffer.clear()

    def _flush_buffers(self) -> None:
        for shard in range(self.n_workers):
            self._send_batch(shard)

    def _sync_scene(self) -> None:
        """Bring every worker's replica up to the current scene.

        Ships what is pending and nothing else: a ``scene_moves`` frame
        for queued moves, a full snapshot when anything else happened.
        Buffered frames go first — they were transmitted before the
        mutation, so they must be forwarded against the older topology.
        """
        # Lock-free peek (the hot path of ``submit``): an event racing
        # it goes out with the next submission or barrier.
        if not self._procs or not (self._snapshot_due or self._pending_moves):
            return
        with self._io_lock:
            # Taken under ``_io_lock`` so concurrent syncs ship their
            # deltas in the order they took them.
            with self._pending_lock:
                due, moves = self._snapshot_due, self._pending_moves
                if moves:
                    self._pending_moves = {}
            if not (due or moves):
                return  # another thread's sync shipped it since the peek
            self._flush_buffers()
            if due:
                snap = self.scene.export_snapshot()
                message = make_scene_snapshot(
                    snapshot_to_dict(snap), snap.version
                )
            else:
                message = make_scene_moves(
                    self.scene.version,
                    self.scene.time,
                    [[node, x, y] for node, (x, y) in moves.items()],
                )
            frame = encode_message(message)
            for worker in range(len(self._conns)):
                self._send_to(worker, frame)
            if due:
                # Only what the export is known to cover: an event that
                # landed after the take keeps a snapshot due (an extra
                # idempotent re-ship, never a lost or re-applied move).
                with self._pending_lock:
                    self._snapshot_due -= due

    def _recv(self, worker: int) -> bytes:
        """One guarded pipe receive: silence or EOF is a worker failure."""
        conn = self._conns[worker]
        if not conn.poll(_REPLY_TIMEOUT):
            raise self._worker_failure(
                worker,
                f"shard worker {worker} did not answer within "
                f"{_REPLY_TIMEOUT:.0f}s",
            )
        try:
            return conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise self._worker_failure(
                worker, f"shard worker {worker} died: {exc}"
            ) from exc

    def _recv_control(self, worker: int) -> dict[str, Any]:
        msg = decode_message(self._recv(worker))
        if msg.get("op") == "worker_error":
            raise self._worker_failure(
                worker,
                f"shard worker {worker} failed: {msg.get('error')}",
                worker_flight=msg.get("flight"),
            )
        return msg

    def _worker_failure(
        self,
        worker: int,
        reason: str,
        worker_flight: Optional[str] = None,
    ) -> ClusterError:
        """Flight-record a worker failure before it becomes ClusterError.

        Dumps the parent's own flight artifact, remembers the dead
        worker's artifact path (shipped on ``worker_error`` frames), and
        best-effort records a ``worker-crash`` scene event so an offline
        ``poem analyze`` raises the ``last-crash`` anomaly.
        """
        self.flight.note("worker-crash", worker=worker, reason=reason)
        artifact = self.flight.dump(reason=reason)
        if worker_flight:
            self.crash_artifacts[worker] = str(worker_flight)
        details: dict[str, Any] = {"worker": worker, "reason": reason}
        if artifact:
            details["flight"] = artifact
        if worker_flight:
            details["worker_flight"] = str(worker_flight)
        try:
            self.recorder.record_scene(
                SceneEvent(
                    time=self._time,
                    kind="worker-crash",
                    node=NodeId(-1),
                    details=details,
                )
            )
        # A dying cluster must still raise the real error even when the
        # recorder is already broken.
        except Exception:  # poem: ignore[POEM005]
            pass
        return ClusterError(reason)

    # -- barriers -----------------------------------------------------------------

    def _exchange(
        self, request: dict[str, Any], expect: str
    ) -> list[dict[str, Any]]:
        """The one request/response round with every worker.

        Ships the buffered frames first, sends ``request`` to every
        worker, then takes each one's reply in worker order — it must be
        an ``expect`` frame echoing the request's ``id`` (only ``flush``
        carries one) — and folds the sample it carries into
        telemetry/health.  Returns the replies.
        """
        with self._io_lock:
            self._flush_buffers()
            frame = encode_message(request)
            for worker in range(self.n_workers):
                self._send_to(worker, frame)
            replies = []
            for worker in range(self.n_workers):
                msg = self._recv_control(worker)
                if msg.get("op") != expect or msg.get("id") != request.get("id"):
                    raise ClusterError(
                        f"shard worker {worker}: unexpected reply to "
                        f"{request['op']!r}: {msg!r}"
                    )
                self._fold_worker_sample(worker, msg)
                replies.append(msg)
            self._refresh_aggregates()
        return replies

    def flush(self, t: float) -> dict[str, Any]:
        """Barrier: run every shard to emulation time ``t``.

        Ships any buffered frames, waits for every worker's ack, folds
        the returned per-worker samples into telemetry/health, then
        advances the parent scene (mobility) to ``t``.  Returns the
        aggregate sample.
        """
        if not self._procs:
            self.start()
        self._sync_scene()
        self._exchange(make_flush(t, next(self._flush_ids)), "flushed")
        if t > self._time:
            self._time = t
        self.scene.advance_time(self._time)
        return {
            "time": self._time,
            **self._totals(),
            "per_worker": [dict(s) for s in self.worker_stats],
        }

    def _fold_worker_sample(self, worker: int, msg: dict[str, Any]) -> None:
        """Fold one worker's health+telemetry sample into the parent.

        Called for every reply of a barrier — ``flushed`` and
        ``worker_report`` — under ``_io_lock``, so shard gauges and
        merged metrics refresh at each ``flush`` and ``collect``.
        """
        stats = self.worker_stats[worker]
        stats["shard_ingested"] = int(msg["shard_ingested"])
        stats["queue_depth"] = int(msg["schedule_depth"])
        stats["busy_fraction"] = float(msg["busy_fraction"])
        stats["counters"] = msg["engine"]
        stats["overload"] = msg["overload"]
        stats["deadline"] = msg["deadline"]
        if self._m_depth is not None:
            label = str(worker)
            self._m_depth.labels(label).set(stats["queue_depth"])
            self._m_busy.labels(label).set(stats["busy_fraction"])
            delta = stats["shard_ingested"] - self._last_shard_ingested[worker]
            if delta > 0:
                self._m_shard_ingested.labels(label).inc(delta)
        self._last_shard_ingested[worker] = stats["shard_ingested"]
        self.telemetry.fold_snapshot(worker, msg.get("telemetry"))
        if self.profiler is not None:
            self.profiler.fold_remote(worker, msg.get("profile"))
        spans = msg.get("spans")
        if spans:
            self._merge_spans(spans)

    def _merge_spans(self, rows: list[list[Any]]) -> None:
        """Splice worker spans onto their parked parent traces.

        A shipped-back span whose ``(source, seqno)`` matches a trace in
        the parent tracer's inflight table is completed as *one*
        contiguous cross-process span: parent stages (``ipc_encode``)
        first, then the worker's ``ipc_queue → ipc_decode → receive → …``
        chain, under the parent's trace id and start stamp.  Unmatched
        spans (their parent trace was evicted) complete as-is.
        """
        tracer = self.telemetry.tracer if self.telemetry.enabled else None
        for row in rows:
            span = ipc.span_from_row(row)
            if tracer is None:
                self.flight.note_span(span)
                continue
            parked = tracer.inflight_pop((span.source, span.seqno))
            if parked is not None:
                span = TraceSpan(
                    trace_id=parked.trace_id,
                    source=span.source,
                    seqno=span.seqno,
                    channel=span.channel,
                    sender=span.sender,
                    receiver=span.receiver,
                    t_start=parked.t_start,
                    outcome=span.outcome,
                    stages=tuple(parked.stages) + span.stages,
                    t_forward=span.t_forward,
                    lag=span.lag,
                )
            tracer.complete_span(span)
            self.flight.note_span(span)

    def _refresh_aggregates(self) -> None:
        t = self._totals()
        self.ingested, self.forwarded = t["ingested"], t["forwarded"]
        self.dropped = t["dropped"]
        self.transport_dropped = t["transport_dropped"]

    def _totals(self) -> dict[str, int]:
        """The ``engine`` section: the workers' last counters, summed
        with those of the workers a restart retired."""
        return {
            key: sum(
                s["counters"].get(key, 0)
                for s in self._retired + self.worker_stats
            )
            for key in ("ingested", "forwarded", "dropped",
                        "transport_dropped")
        }

    # -- collection ---------------------------------------------------------------

    def collect(self) -> list[PacketRecord]:
        """Drain every worker's packet log into the parent recorder.

        Streams are merged in event-time order (:func:`_merge_rows`), the
        parent recorder appends the merged rows and assigns their ids, and
        each returned record is built once with its id, so record ids are
        unique and monotone in merge order.
        With one worker the merge is a passthrough — record ids come out
        identical to an in-process run's.

        Also records the ``cluster-run`` scene event carrying the shard
        map and per-worker counters: the forensics plane keys its
        cross-shard coherence audit on it, and replay ignores it like
        any other run-level marker.
        """
        if not self._procs:
            self.start()
        with self._io_lock:
            self._exchange(make_collect(), "worker_report")
            # Each worker's record frame follows its report on its pipe.
            streams = [
                ipc.decode_record_frame(self._recv(worker))
                for worker in range(self.n_workers)
            ]
        rows = _merge_rows(streams)
        merged: list[PacketRecord] = []
        if rows:
            first = self.recorder.record_many(rows)
            merged = [
                ipc.record_from_row(row, first + i)
                for i, row in enumerate(rows)
            ]
        self.recorder.record_scene(
            SceneEvent(
                time=self._time,
                kind="cluster-run",
                node=NodeId(-1),
                details={
                    "n_workers": self.n_workers,
                    "shard_map": {
                        str(node): shard
                        for node, shard in self.shards.as_dict().items()
                    },
                    "per_worker": [
                        {
                            "worker": i,
                            "records": len(streams[i]),
                            "counters": self.worker_stats[i]["counters"],
                            "shard_ingested":
                                self.worker_stats[i]["shard_ingested"],
                            "busy_fraction":
                                self.worker_stats[i]["busy_fraction"],
                        }
                        for i in range(self.n_workers)
                    ],
                },
            )
        )
        return merged

    def profile_collapsed(self) -> str:
        """The merged cluster profile (parent + every worker) in
        collapsed-stack format; empty string when profiling is off."""
        return self.profiler.collapsed() if self.profiler else ""

    def record_run_summary(self) -> None:
        """Terminal ``run-summary`` event (preceded by the merged
        cluster ``profile`` of a profiled run) so ``poem analyze``
        cross-checks a cluster recording against its own totals."""
        record_run_summary(
            self.recorder,
            self._time,
            self._totals(),
            self.profiler,
            cluster={"n_workers": self.n_workers},
            deadline=self._deadline(),
        )

    def _deadline(self) -> dict[str, Any]:
        """The cluster's ``deadline`` section: every worker's delivery
        buckets summed, judged by the one fidelity rule on the summed
        late/missed/shed counts and the worst state any worker reached.
        Reads the last samples (retired workers' included), so it is as
        fresh as the last exchange."""
        sampled = [
            s for s in self._retired + self.worker_stats if s["deadline"]
        ]
        section = {
            "budget": sampled[0]["deadline"]["budget"]
            if sampled else DEFAULT_LAG_BUDGET,
            **{key: sum(s["deadline"][key] for s in sampled)
               for key in ("on_time", "late", "missed")},
        }
        worst = max(
            (s["overload"]["worst"] for s in sampled),
            key=OverloadState.SEVERITY.__getitem__,
            default=OverloadState.NOMINAL,
        )
        shed = sum(s["overload"]["shed"] for s in sampled)
        section["verdict"] = fidelity_verdict(
            section["late"], section["missed"], shed, worst
        )
        return section

    # -- health -------------------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """Same shape as the other deployments' ``health()``, plus the
        ``cluster`` section ``format_health`` renders per-shard."""
        return {
            "running": self.started
            and all(p.is_alive() for p in self._procs),
            "time": self._time,
            "threads": {},
            "recent_failures": [],
            **virtual_clients(self.scene, self._hosts, self._time),
            "engine": self._totals(),
            "schedule_depth": sum(
                s["queue_depth"] for s in self.worker_stats
            ),
            "deadline": self._deadline(),
            "cluster": {
                "n_workers": self.n_workers,
                "alive": sum(1 for p in self._procs if p.is_alive()),
                "shard_loads": self.shards.loads(),
                "per_worker": [dict(s) for s in self.worker_stats],
                "crash_artifacts": dict(self.crash_artifacts),
                "profiler": (
                    {
                        "hz": self.profiler.hz,
                        "samples": self.profiler.samples,
                        "paused": self.profiler.paused,
                        "stacks": len(self.profiler.folded()),
                    }
                    if self.profiler is not None
                    else None
                ),
            },
        }


def _unsampled(worker: int) -> dict[str, Any]:
    """A worker's stats before its first sample arrives."""
    return {
        "worker": worker,
        "shard_ingested": 0,
        "queue_depth": 0,
        "busy_fraction": 0.0,
        "counters": {},
        "overload": None,
        "deadline": None,
    }


def _merge_rows(streams: list[list[tuple]]) -> list[tuple]:
    """Merge the workers' record rows in event-time order.

    A stable sort over the worker-ordered concatenation: ties keep
    worker, then worker-local, order — the ``(event_time, worker,
    position)`` order — without building a key per row.  One stream is
    passed through in its worker's log order.
    """
    if len(streams) == 1:
        return streams[0]
    rows = [row for stream in streams for row in stream]
    rows.sort(key=ipc.row_event_time)
    return rows
