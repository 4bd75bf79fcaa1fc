"""The paper-faithful real-time TCP emulation server (Fig 4, §3.2).

Workstations (or processes — "several clients can run in one workstation")
connect over TCP; each connection is mapped to a Virtual MANET Node.  The
paper describes Steps 1–7 as "parallel multiple threads"; under one
interpreter lock those threads only hand packets to each other, so the
server runs the steps on **one supervised loop** (``poem-loop``) shaped
like a real-time simulation scheduler — wait on the sockets with the next
forward deadline as the timeout:

* **wait** — one ``select`` over the listening socket, every client
  socket and a wake socketpair, until the schedule's head entry is due,
  the next heartbeat is due, the next mobility tick is due, or
  ``scan_poll × 25`` s passed
  (:meth:`~repro.core.scheduler.ForwardSchedule.wait_ready`);
* **advance** — a wake with readable sockets, or one ``mobility_tick``
  after scene time was last evaluated, first advances the scene to the
  clock (:meth:`~repro.core.scene.Scene.advance_time`), so every packet
  is forwarded on the scene at its receipt, one wake stale at most;
* **read** (Step 1) — one bounded ``recv`` per readable socket; every
  complete frame it brought is de-framed and handled inline: ingest
  (Steps 2–4), or the clock-sync reply with server time-stamps (§4.1
  steps 2–3);
* **harvest** (Step 5) — deliveries whose forward time has come are
  encoded onto their receiver's bounded out-buffer; recording (Step 7)
  happens inside the engine via the shared recorder;
* **write** (Step 6) — each connection with queued frames gets one
  non-blocking write of all of them; a connection the kernel pushed back
  on waits for writability in the same ``select``, so a slow client never
  stalls the others.

The harvest runs once per pass — a pass reads at most one
:data:`~repro.net.framing.RECV_CHUNK` per client before it — because one
harvest is one observation of the overload controller: harvesting inside
a batch of frames as well made every host stall count several times over
(see docs/performance.md).  ``select.select`` caps the server at
descriptors below :data:`SELECT_MAX_FD`.  ``mobility_tick`` is the
longest an idle server leaves scene time unevaluated: the ``node-moved``
events a replay draws stay that smooth with no traffic at all.

Scene mutations arrive either from local code (scenario scripts, the GUI
module) or from a connected operator console via ``scene_op`` messages.

Fault tolerance (the layer §3.2 implies but the paper never implements —
"overload of server computation" is its only nod to degraded operation):

* the loop runs under a :class:`~repro.core.supervision.
  SupervisedThread`; a crash is recorded and the loop restarts with
  capped exponential backoff, its connections intact (they live on the
  server, not in the loop's frame).  A failure while handling one
  client's frame is recorded and closes only that connection.
  :meth:`PoEmServer.health` exposes the whole picture.
* every ``heartbeat_interval`` the loop pings every client; a client
  silent for ``heartbeat_misses`` intervals is *quarantined*: its VMN
  stays in the scene (routes through it survive a transient stall) but
  traffic to/from it drops as ``node-stale``.  After ``stale_grace``
  seconds without recovery the node is removed.
* an **unexpectedly disconnected** client's VMN is likewise quarantined
  for the grace period; a client re-registering under the same label
  within it *reclaims* its node (id, position, routes) — the reconnect
  path of :class:`~repro.core.client.PoEmClient`.  An orderly ``bye``
  still removes the node immediately.
* each client's out-buffer is **bounded** (``outbox_limit``) with a
  drop-oldest policy; overflow is counted per client and recorded via
  the :class:`~repro.core.recording.Recorder` as ``transport-overflow``
  drops, so replay and statistics see transport-level loss.  A frame
  whose first bytes are on the wire is never dropped.
"""

from __future__ import annotations

import itertools
import logging
import socket
import threading
import time as _time_mod
from collections import deque
from typing import Optional

from ..errors import PoEmError, SceneError, TransportError
from ..models.link import BandwidthModel, DelayModel, LinkModel, PacketLossModel
from ..models.mobility import Bounds
from ..models.radio import Radio, RadioConfig
from ..net import framing, messages
from ..obs.logging import get_logger, log_event
from ..obs.telemetry import Telemetry
from .clock import RealTimeClock, SyncRequest, SyncSample, make_sync_reply
from .forwarding import ForwardingCore, release_profiler
from .geometry import Vec2
from .ids import ChannelId, IdAllocator, NodeId, RadioIndex
from .overload import DEFAULT_LAG_BUDGET, OverloadState
from .packet import DropReason, Packet
from .recording import Recorder
from .scene import SceneEvent
from .supervision import HealthRegistry

__all__ = ["PoEmServer"]

SELECT_MAX_FD = 1024
"""``select.select`` cannot watch a descriptor at or above FD_SETSIZE;
a connection that lands there is refused."""

_LOOP = "poem-loop"
_conn_ids = itertools.count(1)
_perf = _time_mod.perf_counter
_log = get_logger("tcpserver")


class _ClientConnection:
    """Server-side state for one connected emulation client (owned by
    the loop thread)."""

    def __init__(
        self, sock: socket.socket, now: float, outbox_limit: int
    ) -> None:
        self.sock = sock
        self.node_id: Optional[NodeId] = None
        self.label = ""
        #: Source name of this connection's entries in the failure log.
        self.name = f"poem-conn-{next(_conn_ids)}"
        self.last_seen = now
        self.reclaimed = False
        self.overflow = 0  # frames displaced from the bounded outbox
        self.inbuf = framing.FrameBuffer()
        # Bounded out-buffer of (frame, packet|None) not yet written.
        self.outbox: deque = deque(maxlen=max(int(outbox_limit), 1))
        # What the kernel did not take of the batch being written; it
        # goes out before anything from the outbox does.
        self.unsent = b""

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class PoEmServer(ForwardingCore):
    """The central emulation server of the real-time deployment."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        recorder: Optional[Recorder] = None,
        bounds: Optional[Bounds] = None,
        seed: Optional[int] = 0,
        schedule_capacity: Optional[int] = None,
        mobility_tick: float = 0.05,
        scan_poll: float = 0.002,
        heartbeat_interval: float = 0.5,
        heartbeat_misses: int = 3,
        stale_grace: float = 2.0,
        outbox_limit: int = 1024,
        telemetry: Optional[Telemetry] = None,
        metrics_port: Optional[int] = None,
        metrics_host: str = "127.0.0.1",
        lag_budget: float = DEFAULT_LAG_BUDGET,
        profile_hz: Optional[float] = None,
    ) -> None:
        self._host = host
        self._port = port
        super().__init__(
            RealTimeClock(),
            role="server",
            seed=seed,
            bounds=bounds,
            recorder=recorder,
            schedule_capacity=schedule_capacity,
            telemetry=telemetry,
            lag_budget=lag_budget,
            profile_hz=profile_hz,
        )
        self.overload.on_transition = self._on_overload_transition
        self.engine.deliver = self._deliver
        # Last delivered packet and its frame, rebound as one pair (only
        # the loop delivers; POEM008 cannot tell engines' `deliver` apart).
        self._deliver_frame = (None, b"")  # poem: ignore[POEM008]
        self._ids = IdAllocator()
        self._mobility_tick = mobility_tick
        self._scan_poll = scan_poll
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_misses = max(int(heartbeat_misses), 1)
        self._stale_grace = stale_grace
        self._outbox_limit = outbox_limit
        self._sock: Optional[socket.socket] = None
        # stop() writes a byte to _wake_w to end the loop's select.
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        self._running = False
        self.supervisor = HealthRegistry()
        # Loop-owned state.  It lives here and not in the loop's frame so
        # that a crashed-and-restarted loop finds its connections intact.
        self._conns: dict[socket.socket, _ClientConnection] = {}
        self._dirty: set[_ClientConnection] = set()  # frames to write
        self._blocked: set[_ClientConnection] = set()  # await writability
        # The three maps below are written by the loop thread only, under
        # _clients_lock; the loop reads them bare, health() under the lock.
        self._clients: dict[NodeId, _ClientConnection] = {}
        # Quarantined nodes -> removal deadline (server clock seconds).
        self._stale: dict[NodeId, float] = {}
        # Disconnected-but-graced nodes by registration label (reclaim map).
        self._orphans: dict[str, NodeId] = {}
        self._clients_lock = threading.Lock()
        # -- observability plane -------------------------------------------
        self._metrics_host = metrics_host
        self._metrics_port = metrics_port
        self._metrics_httpd = None  # obs.httpd.TelemetryHTTPServer
        self.metrics_address: Optional[tuple[str, int]] = None
        self._m_rx = self._m_tx = self._m_overflow = self._m_quarantines = None
        if self.telemetry.enabled:
            reg = self.telemetry.registry
            self._m_rx = reg.counter(
                "poem_server_frames_received_total",
                "Packet frames received from clients",
            )
            self._m_tx = reg.counter(
                "poem_server_frames_sent_total",
                "Deliver frames queued onto client outboxes",
            )
            self._m_overflow = reg.counter(
                "poem_server_outbox_overflow_total",
                "Frames displaced from bounded client outboxes",
            )
            self._m_quarantines = reg.counter(
                "poem_server_quarantines_total",
                "Clients quarantined for heartbeat silence or disconnect",
            )
            reg.gauge_fn(
                "poem_server_clients",
                "Currently connected emulation clients",
                lambda: len(self._clients),
            )
            reg.gauge_fn(
                "poem_server_quarantined",
                "Nodes currently quarantined awaiting reclaim or expiry",
                lambda: len(self._stale),
            )
            reg.counter_fn(
                "poem_thread_failures_total",
                "Crashes recorded by the supervision layer",
                lambda: self.supervisor.failures_total,
            )

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, listen, and start the loop (which also ticks scene time).

        Returns the bound (host, port) — port 0 lets the OS pick one.
        """
        if self._running:
            raise TransportError("server already running")
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((self._host, self._port))
        self._sock.listen(64)
        self._sock.setblocking(False)
        self._wake_r, self._wake_w = socket.socketpair()
        self._running = True
        self.supervisor.spawn(
            _LOOP, self._serve_loop, restartable=True,
            should_run=lambda: self._running,
        )
        if self.profiler is not None:
            self.profiler.start()
        if self._metrics_port is not None and self.telemetry.enabled:
            # Imported here: http.server and what it drags in (ssl,
            # email, ...) stay out of every process with no endpoint.
            from ..obs.httpd import TelemetryHTTPServer

            self._metrics_httpd = TelemetryHTTPServer(
                self.telemetry.registry,
                health_fn=self.health,
                tracer=self.telemetry.tracer,
                recorder=self.recorder,
                profiler=self.profiler,
                host=self._metrics_host,
                port=self._metrics_port,
            )
            self.metrics_address = self._metrics_httpd.start()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        if self._sock is None:
            raise TransportError("server not started")
        return self._sock.getsockname()[:2]

    def stop(self) -> None:
        """Shut everything down; safe to call twice."""
        if not self._running:
            return
        self._running = False
        self._wake_w.send(b"\0")  # end the loop's select now
        release_profiler(self.profiler)
        if self._metrics_httpd is not None:
            self._metrics_httpd.stop()
            self._metrics_httpd = None
            self.metrics_address = None
        # The loop is gone once this returns, so its state is ours.
        self.supervisor.stop_all(timeout=2.0)
        self.engine.schedule.close()
        for sock in (self._sock, self._wake_r, self._wake_w):
            sock.close()
        for conn in list(self._conns.values()):
            self._close(conn)
        with self._clients_lock:
            self._clients.clear()
            self._stale.clear()
            self._orphans.clear()
        try:
            # The sampler was stopped above; its table survives.
            self.record_run_summary()
        except PoEmError as exc:  # a closed sqlite recorder must not
            self.supervisor.note_failure("run-summary", exc)  # mask stop()

    def _on_overload_transition(
        self, old: str, new: str, info: dict
    ) -> None:
        """Controller state change: log it and pin it into the recording.

        The ``overload-state`` scene event (sentinel node ``-1``, like
        ``run-summary``) is what lets ``poem analyze`` reconstruct the
        degraded intervals of a finished run.  Invoked by the controller
        *outside* its lock, from the thread that observed the change (the
        loop).
        """
        escalating = (
            OverloadState.SEVERITY[new] > OverloadState.SEVERITY[old]
        )
        log_event(
            _log, "overload-state",
            level=logging.WARNING if escalating else logging.INFO,
            old=old, new=new,
            lag_ewma=info.get("lag_ewma"), depth=info.get("depth"),
        )
        try:
            self.recorder.record_scene(
                SceneEvent(
                    time=info.get("t", self.clock.now()),
                    kind="overload-state",
                    node=NodeId(-1),
                    details={"from": old, "to": new, **info},
                )
            )
        except PoEmError as exc:  # never let recording kill the observer
            self.supervisor.note_failure("overload-state", exc)

    def __enter__(self) -> "PoEmServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- health (supervision snapshot, consumed by stats/GUI panes) ---------------

    def health(self) -> dict:
        """Liveness snapshot: thread supervision, per-client state, engine
        counters.  JSON-friendly; rendered by
        :func:`repro.stats.report.format_health` and the console's
        ``health`` command."""
        sup = self.supervisor.health()
        with self._clients_lock:
            clients = {
                int(nid): {
                    "label": conn.label,
                    "last_seen": conn.last_seen,
                    "stale": nid in self._stale,
                    "overflow": conn.overflow,
                    "outbox_depth": len(conn.outbox),
                }
                for nid, conn in self._clients.items()
            }
            quarantined = {int(n): dl for n, dl in self._stale.items()}
        out = {
            "running": self._running,
            "time": self.clock.now(),
            "threads": sup["threads"],
            "recent_failures": sup["recent_failures"],
            "clients": clients,
            "quarantined": quarantined,
            **self._core_health(),
        }
        if self.metrics_address is not None:
            out["metrics_address"] = list(self.metrics_address)
        return out

    # -- the loop: wait, advance, read, harvest, write --------------------------------

    def _serve_loop(self) -> None:
        """Steps 1, 5 and 6 of every client on one thread (see the
        module docstring).  Everything it owns lives on ``self``, so the
        supervisor can re-enter it after a crash."""
        clock, schedule = self.clock, self.engine.schedule
        idle = self._scan_poll * 25
        beat = self._heartbeat_interval
        tick = self._mobility_tick
        next_beat = clock.now() + beat
        while self._running:
            now = clock.now()
            wait = min(idle, self.scene.time + tick - now)
            readable, writable = schedule.wait_ready(
                now,
                min(wait, next_beat - now) if beat > 0 else wait,
                [self._sock, self._wake_r, *self._conns],
                [conn.sock for conn in self._blocked],
            )
            # Scene time is the loop's: mobility up to this wake before
            # any frame of it is forwarded, and once a tick when idle.
            if readable or clock.now() - self.scene.time >= tick:
                self.scene.advance_time()
            for sock in readable:
                conn = self._conns.get(sock)
                if conn is not None:
                    self._read(conn)
                elif sock is self._sock:
                    self._accept()
                # else the wake socket (stop() cleared _running), or a
                # connection dropped earlier in this pass
            for sock in writable:
                conn = self._conns.get(sock)
                if conn is not None:
                    self._dirty.add(conn)
            now = clock.now()
            if beat > 0 and now >= next_beat:
                next_beat = now + beat
                self._heartbeat(now)
            # Harvest (Step 5), also on an idle timeout: an empty one is
            # the quiet observation the overload controller recovers on.
            self.engine.flush_wait(now)
            dirty = self._dirty
            while dirty:
                self._write(dirty.pop())

    def _accept(self) -> None:
        try:
            sock, _addr = self._sock.accept()
        except OSError:
            return  # the peer reset before we got to it
        if sock.fileno() >= SELECT_MAX_FD:
            sock.close()
            self.supervisor.note_failure(
                _LOOP,
                TransportError("connection refused: out of select() slots"),
            )
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._conns[sock] = _ClientConnection(
            sock, self.clock.now(), self._outbox_limit
        )

    def _read(self, conn: _ClientConnection) -> None:
        """Step 1 for one readable connection: one bounded ``recv``,
        every complete frame it brought handled inline.

        Failure policy (fault-tolerance layer): whatever goes wrong on a
        connection — transport violations, malformed messages, a bug in
        a handler — is *recorded* in the supervisor's failure log and
        closes only that connection; recoverable scene races (an op on
        an already-removed node) log and continue.
        """
        for frame in self._recv_frames(conn):
            try:
                if self._handle_frame(conn, frame):
                    self._drop_client(conn, orderly=True)
            except SceneError as exc:
                # e.g. scene_op for a node removed a moment earlier:
                # the op is stale, the connection is healthy.
                self.supervisor.note_failure(f"{conn.name}:recoverable", exc)
            except Exception as exc:  # the per-connection boundary
                self.supervisor.note_failure(conn.name, exc)
                self._drop_client(conn)
            if conn.sock not in self._conns:
                return  # bye, a failure, or the write of a reply failed

    def _recv_frames(self, conn: _ClientConnection) -> list[bytes]:
        """One bounded ``recv``: the complete frames it brought (none
        when it brought none, or ended the connection)."""
        try:
            data = conn.sock.recv(framing.RECV_CHUNK)
            if data:
                self._touch(conn, self.clock.now())
                return conn.inbuf.feed(data)
            conn.inbuf.eof()  # FramingError if the peer died mid-frame
        except BlockingIOError:
            return []
        except (OSError, TransportError) as exc:
            self.supervisor.note_failure(conn.name, exc)
        self._drop_client(conn)
        return []

    def _write(self, conn: _ClientConnection) -> None:
        """Step 6: one non-blocking write of everything queued for one
        client.  What the kernel does not take waits for writability."""
        try:
            if conn.unsent:
                conn.unsent = framing.send_frames(conn.sock, (), conn.unsent)
            if not conn.unsent and conn.outbox:
                frames = [entry[0] for entry in conn.outbox]
                conn.outbox.clear()
                conn.unsent = framing.send_frames(conn.sock, frames)
        except TransportError:
            self._drop_client(conn)  # gone; its VMN gets the grace period
            return
        if conn.unsent:
            self._blocked.add(conn)
        else:
            self._blocked.discard(conn)

    def _handle_frame(self, conn: _ClientConnection, frame: bytes) -> bool:
        """Dispatch one raw frame: a 0xB1 packet runs Steps 2–4, anything
        else is a JSON control message.

        Returns True on an orderly ``bye``.  The magic-byte sniff is safe
        because a JSON message's first byte is always ``{`` (0x7B), never
        the binary magic 0xB1.  ``t0``, when the frame was taken off the
        buffer, is Step 1 of a sampled trace.
        """
        t0 = _perf() if self._tracer is not None else 0.0
        if not messages.is_binary_frame(frame):
            return self._handle_message(conn, messages.decode_message(frame))
        op, packet = messages.decode_packet_binary(frame)
        if op != "packet":
            raise TransportError(f"client sent server-only binary op {op!r}")
        if conn.node_id is None:
            raise TransportError("packet before register")
        tr = None
        if self._tracer is not None:
            self._m_rx.inc()
            tr = self._sampled_receive(conn.node_id, packet, t0)
        self.engine.ingest(conn.node_id, packet, trace=tr)
        return False

    def _handle_message(self, conn: _ClientConnection, msg: dict) -> bool:
        """Dispatch one message; returns True on an orderly ``bye``."""
        op = msg["op"]
        if op == "register":
            self._register(conn, msg)
        elif op == "sync_req":
            # §4.1 steps 2–3: stamp receipt, stamp reply, echo the sum.
            t_s2 = self.clock.now()
            reply = make_sync_reply(
                SyncRequest(t_c1=float(msg["t_c1"])), t_s2, self.clock.now()
            )
            self._enqueue(
                conn,
                messages.encode_message(
                    {"op": "sync_rep", "t_s3": reply.t_s3, "echo": reply.echo}
                ),
            )
            # Written now, not at the end of the pass: time between the
            # t_s3 stamp and the wire reads as path asymmetry.
            self._write(conn)
        elif op == "sync_report":
            # Forensics capture: the client reports every §4.1 round it
            # just ran (offset, delay, its t_s4 server-time estimate and
            # t_c4 local time) so the recorder's sync_samples table holds
            # the raw material of the offline clock-drift audit.
            if conn.node_id is None:
                raise TransportError("sync_report before register")
            cause = str(msg.get("cause", "resync"))
            for raw in msg["samples"]:
                self.recorder.record_sync(
                    SyncSample(
                        node=int(conn.node_id),
                        label=conn.label,
                        offset=float(raw["offset"]),
                        delay=float(raw["delay"]),
                        t_server=float(raw["t_server"]),
                        t_client=float(raw["t_client"]),
                        cause=cause,
                    )
                )
        elif op == "scene_op":
            self._scene_op(msg)
        elif op == "ping":
            self._enqueue(conn, messages.encode_message(messages.make_pong(msg)))
        elif op == "pong":
            pass  # _touch already refreshed this client's liveness
        elif op == "bye":
            return True
        else:
            raise TransportError(f"unknown op: {op!r}")
        return False

    def _register(self, conn: _ClientConnection, msg: dict) -> None:
        label = str(msg.get("label", ""))
        radios = RadioConfig(
            tuple(_radio_from_wire(r) for r in msg["radios"])
        )
        # Reconnect path: a client re-registering under its prior label
        # within the grace period reclaims its quarantined VMN (same id,
        # same position — routes through it survive).  An orphan whose
        # node left the scene meanwhile (a console removed it) falls
        # through to a fresh registration.
        node_id = self._orphans.get(label) if label else None
        if node_id is not None:
            with self._clients_lock:
                del self._orphans[label]
                self._stale.pop(node_id, None)
                if node_id in self.scene:
                    self._clients[node_id] = conn
                else:
                    node_id = None
        if node_id is not None:
            try:
                self.scene.restore_node(node_id)
            except SceneError:
                pass
            conn.reclaimed = True
            log_event(
                _log, "client-reclaimed", level=logging.INFO,
                node=int(node_id), label=label,
            )
        else:
            node_id = NodeId(self._ids.allocate())
            self.scene.add_node(
                node_id,
                Vec2(float(msg["x"]), float(msg["y"])),
                radios,
                label=label,
            )
            with self._clients_lock:
                self._clients[node_id] = conn
        conn.node_id = node_id
        conn.label = label
        self._enqueue(
            conn,
            messages.encode_message(
                {
                    "op": "registered",
                    "node": int(node_id),
                    "reclaimed": conn.reclaimed,
                }
            ),
        )

    # -- liveness / quarantine ---------------------------------------------------

    def _touch(self, conn: _ClientConnection, now: float) -> None:
        """Any inbound bytes prove the client alive; lift quarantine."""
        conn.last_seen = now
        nid = conn.node_id
        if nid in self._stale and self._clients.get(nid) is conn:
            with self._clients_lock:
                del self._stale[nid]
                if conn.label:
                    self._orphans.pop(conn.label, None)
            try:
                self.scene.restore_node(nid)
            except SceneError:
                pass

    def _heartbeat(self, now: float) -> None:
        """Ping every client; quarantine the silent, expire the stale."""
        ping = messages.encode_message(
            messages.make_ping(
                now,
                overload=(
                    self.overload.state if self.overload.severity else None
                ),
            )
        )
        silence_limit = self._heartbeat_interval * self._heartbeat_misses
        for nid, conn in list(self._clients.items()):
            self._enqueue(conn, ping)
            if nid not in self._stale and now - conn.last_seen > silence_limit:
                self._quarantine(nid, conn, now, "heartbeat")
        for nid, deadline in list(self._stale.items()):
            if now >= deadline:
                self._expire(nid)

    def _quarantine(
        self, nid: NodeId, conn: _ClientConnection, now: float, cause: str
    ) -> bool:
        """Keep a silent or vanished client's VMN for the grace period;
        False when the node has left the scene (a console removed it)."""
        with self._clients_lock:
            self._stale[nid] = now + self._stale_grace
        if self._m_quarantines is not None:
            self._m_quarantines.inc()
        log_event(
            _log, "client-quarantined",
            node=int(nid), label=conn.label,
            deadline=round(now + self._stale_grace, 3), cause=cause,
        )
        try:
            self.scene.quarantine_node(nid)
        except SceneError:
            return False
        return True

    def _expire(self, nid: NodeId) -> None:
        """Grace period over: remove the VMN and drop its connection."""
        with self._clients_lock:
            del self._stale[nid]
            conn = self._clients.pop(nid, None)
            for lbl in [l for l, n in self._orphans.items() if n == nid]:
                del self._orphans[lbl]
        log_event(_log, "client-expired", node=int(nid))
        if nid in self.scene:
            try:
                self.scene.remove_node(nid)
            except SceneError:
                pass
        if conn is not None:
            self._close(conn)

    def _drop_client(
        self, conn: _ClientConnection, *, orderly: bool = False
    ) -> None:
        """Connection teardown.

        An *orderly* departure (``bye``) removes the VMN immediately; an
        unexpected one quarantines it for ``stale_grace`` seconds so a
        reconnecting client can reclaim it (by label) with its topology
        intact.
        """
        self._close(conn)
        nid = conn.node_id
        if nid is None or self._clients.get(nid) is not conn:
            return  # never registered, or a newer connection owns the node
        keep = not orderly and self._running and self._stale_grace > 0
        with self._clients_lock:
            del self._clients[nid]
            if keep and conn.label:
                self._orphans[conn.label] = nid
        if keep:
            keep = self._quarantine(nid, conn, self.clock.now(), "disconnect")
        if not keep:
            with self._clients_lock:
                self._stale.pop(nid, None)
                if conn.label:
                    self._orphans.pop(conn.label, None)
            if nid in self.scene:
                try:
                    self.scene.remove_node(nid)
                except SceneError:
                    pass

    def _close(self, conn: _ClientConnection) -> None:
        """Close a connection and forget it wherever the loop looks (a
        connection is open exactly as long as ``_conns`` holds it)."""
        if self._conns.pop(conn.sock, None) is not None:
            self._dirty.discard(conn)
            self._blocked.discard(conn)
            conn.close()

    # -- backpressure ------------------------------------------------------------

    def _enqueue(
        self,
        conn: _ClientConnection,
        frame: bytes,
        packet: Optional[Packet] = None,
    ) -> None:
        """Queue a frame for the next write; drop-oldest on overflow."""
        outbox = conn.outbox
        if len(outbox) == outbox.maxlen:
            conn.overflow += 1
            self._on_outbox_overflow(conn, outbox[0][1])
        outbox.append((frame, packet))  # when full, displaces the oldest
        if not conn.unsent:
            self._dirty.add(conn)

    def _on_outbox_overflow(
        self, conn: _ClientConnection, packet: Optional[Packet]
    ) -> None:
        """A slow client's outbox displaced its oldest entry (Step 6
        backpressure).  Data frames are recorded as transport drops."""
        if self._m_overflow is not None:
            self._m_overflow.inc()
        # Log the first overflow per connection, then every 256th — a
        # persistently slow client must not flood the log plane.
        if conn.overflow == 1 or conn.overflow % 256 == 0:
            log_event(
                _log, "outbox-overflow",
                node=int(conn.node_id) if conn.node_id is not None else None,
                label=conn.label, total=conn.overflow,
            )
        if packet is not None:
            self.engine.record_transport_drop(
                packet, conn.node_id, DropReason.TRANSPORT_OVERFLOW
            )

    def _scene_op(self, msg: dict) -> None:
        """Topology control from a connected console (GUI substitute)."""
        op = msg["scene"]
        node = NodeId(int(msg["node"]))
        if op == "move":
            self.scene.move_node(node, Vec2(float(msg["x"]), float(msg["y"])))
        elif op == "set_channel":
            self.scene.set_radio_channel(
                node, RadioIndex(int(msg["radio"])), ChannelId(int(msg["channel"]))
            )
        elif op == "set_range":
            self.scene.set_radio_range(
                node, RadioIndex(int(msg["radio"])), float(msg["range"])
            )
        elif op == "remove":
            self.scene.remove_node(node)
        else:
            raise TransportError(f"unknown scene op: {op!r}")

    # -- deliver -----------------------------------------------------------------

    def _deliver(self, receiver: NodeId, packet: Packet) -> None:
        """Step 6 hand-off (called by the harvest, on the loop thread):
        encode the frame onto the receiver's out-buffer."""
        conn = self._clients.get(receiver)
        if conn is not None:
            # A delivered group is one packet object: encode it once.
            memo = self._deliver_frame
            if memo[0] is not packet:
                memo = self._deliver_frame = (
                    packet, messages.encode_packet_binary("deliver", packet)
                )
            self._enqueue(conn, memo[1], packet)
            if self._m_tx is not None:
                self._m_tx.inc()


def _radio_from_wire(raw: dict) -> Radio:
    """Build a radio (with optional link-model parameters) from JSON."""
    link_raw = raw.get("link")
    if link_raw:
        rng_ = float(raw["range"])
        link = LinkModel(
            loss=PacketLossModel(
                p0=float(link_raw.get("p0", 0.0)),
                p1=float(link_raw.get("p1", link_raw.get("p0", 0.0))),
                d0=float(link_raw.get("d0", 0.0)),
                radio_range=float(link_raw.get("loss_range", rng_)),
            ),
            bandwidth=BandwidthModel(
                peak=float(link_raw.get("bw_peak", 11e6)),
                edge=float(link_raw.get("bw_edge", link_raw.get("bw_peak", 11e6))),
                radio_range=rng_,
            ),
            delay=DelayModel(base=float(link_raw.get("delay", 0.0))),
        )
    else:
        link = LinkModel()
    return Radio(
        channel=ChannelId(int(raw["channel"])),
        range=float(raw["range"]),
        link=link,
    )
