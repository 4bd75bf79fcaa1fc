"""The real-time emulation client (§3.3).

"Developed routing protocols are embedded in the clients.  All traffic
originated from protocol implementations will be packed, time-stamped and
then directed to the server via TCP/IP connections."

:class:`PoEmClient` is a full :class:`~repro.protocols.base.ProtocolHost`:
it connects, registers its VMN (position + radios), synchronizes its
emulation clock with the server (§4.1 — several rounds, keeping the
minimum-delay sample, Cristian-style), stamps every outgoing packet with
the synchronized clock (*parallel time-stamping*), and dispatches
delivered frames to the embedded protocol.  One receiver thread is the
client's only event thread, from :meth:`~PoEmClient.connect` to
``close``: it dials, runs the handshake, runs the protocol's timers and
decodes every frame through one dispatcher, :meth:`~PoEmClient._handle`,
which queues each ``registered`` / ``sync_rep`` reply with the local
instant it was read (the §4.1 ``t_c4``).  It waits in one place,
:meth:`~PoEmClient._wait`, so timers fire between frames, in a handshake
and in a reconnect backoff alike.  A sync wait on that thread holds the
deliveries it meets for the loop to dispatch, in wire order.  Writes
stay one ``sendall`` per frame, the unit of fault of ``FaultyTransport``.

Fault tolerance: the client answers the server's ``ping`` heartbeats, and
with ``auto_reconnect=True`` it survives a dropped connection — the
receiver thread redials with exponential backoff plus jitter,
re-registers under its prior label (reclaiming its quarantined VMN
within the server's grace period), re-runs the §4.1 clock sync, and
resumes the embedded protocol.  Frames transmitted during the outage are
counted in :attr:`outage_drops` (radio silence, not an error).  The
``transport_wrapper`` hook lets tests interpose a
:class:`~repro.net.faults.FaultyTransport` on the socket, and the
``local_clock`` hook substitutes the workstation clock — e.g. a
:class:`~repro.net.faults.SkewedClock` emulating a drifting oscillator
for the forensics plane's clock audit to catch.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import queue
import random
import select
import socket
import threading
import time
from collections import deque
from typing import Callable, Optional

from ..errors import ClockError, TransportError
from ..models.radio import RadioConfig
from ..net import framing, messages
from ..obs.logging import get_logger, log_event
from ..protocols.base import ProtocolHost, RoutingProtocol, TimerHandle, TimerService
from .clock import (
    EmulationClock,
    RealTimeClock,
    SynchronizedClock,
    SyncReply,
    SyncResult,
    estimate_offset,
)
from .geometry import Vec2
from .ids import ChannelId, NodeId
from .packet import Packet, PacketStamper
from .supervision import SupervisedThread

__all__ = ["PoEmClient"]

_log = get_logger("client")


class _Timers(TimerService):
    """A client's protocol timers: a heap of (deadline, seq) under one
    lock, run by the receiver's wait with the callbacks outside it."""

    def __init__(self, wake: Callable[[], None]) -> None:
        self._lock = threading.Lock()
        self._heap: list[tuple[float, int]] = []
        self._fns: dict[int, Callable[[], None]] = {}  # seq -> armed callback
        self._seq = itertools.count()
        self._wake = wake  # called when a new timer becomes the head

    def call_after(self, delay: float, fn: Callable[[], None]) -> TimerHandle:
        if delay != delay:
            raise ClockError("NaN timer delay")
        when = time.monotonic() + max(delay, 0.0)
        with self._lock:
            seq = next(self._seq)
            self._fns[seq] = fn
            heapq.heappush(self._heap, (when, seq))
            head = self._heap[0][1] == seq
        if head:
            self._wake()
        return TimerHandle(seq)

    def cancel(self, handle: TimerHandle) -> None:
        with self._lock:
            self._fns.pop(handle.key, None)  # its heap entry is skipped

    def cancel_all(self) -> None:
        with self._lock:
            self._fns.clear()
            self._heap.clear()

    def run_due(self) -> float:
        """Run the callbacks that fell due, in deadline order; return the
        next deadline (``inf`` when none is armed)."""
        heap, fns = self._heap, self._fns
        while heap:
            with self._lock:
                if not heap or heap[0][0] > time.monotonic():
                    return heap[0][0] if heap else math.inf
                fn = fns.pop(heapq.heappop(heap)[1], None)
            if fn is not None:
                try:
                    fn()
                except TransportError:
                    pass  # a link lost under the callback
        return math.inf


class PoEmClient(ProtocolHost):
    """One emulation client ↔ one VMN on the server."""

    def __init__(
        self,
        address: tuple[str, int],
        position: Vec2,
        radios: RadioConfig,
        *,
        label: str = "",
        sync_rounds: int = 5,
        connect_timeout: float = 5.0,
        auto_reconnect: bool = False,
        reconnect_base: float = 0.05,
        reconnect_cap: float = 2.0,
        reconnect_jitter: float = 0.25,
        max_reconnect_attempts: int = 8,
        reconnect_seed: Optional[int] = None,
        transport_wrapper: Optional[Callable[[socket.socket], object]] = None,
        local_clock: Optional[EmulationClock] = None,
        telemetry=None,
    ) -> None:
        self._address = address
        self._position = position
        self._radios = radios
        self._label = label
        self._sync_rounds = sync_rounds
        self._connect_timeout = connect_timeout
        self._auto_reconnect = auto_reconnect
        self._reconnect_base = reconnect_base
        self._reconnect_cap = reconnect_cap
        self._reconnect_jitter = reconnect_jitter
        self._max_reconnect_attempts = max_reconnect_attempts
        self._reconnect_rng = random.Random(
            reconnect_seed if reconnect_seed is not None else label or None
        )
        self._transport_wrapper = transport_wrapper

        self._sock = None  # socket.socket or a transport wrapper around one
        self._reader: Optional[framing.FrameReader] = None  # receiver only
        self._send_lock = threading.Lock()
        self._node_id: Optional[NodeId] = None
        self._local_clock: EmulationClock = (
            local_clock if local_clock is not None else RealTimeClock()
        )
        self.clock = SynchronizedClock(self._local_clock)
        self.last_sync: Optional[SyncResult] = None
        self._stamper: Optional[PacketStamper] = None
        self._timers = _Timers(self._wake)
        self._receiver: Optional[SupervisedThread] = None
        self._running = False
        self._outage = threading.Event()  # set while the link is down
        self._wake_r = self._wake_w = None  # select wake pair, per connect()
        # (reply, t_read) for every registered / sync_rep, in wire order.
        self._replies: "queue.Queue[tuple[dict, float]]" = queue.Queue()
        # Deliver frames a receiver-thread wait read; dispatched next.
        self._held: deque[bytes] = deque()
        self._dialed: "queue.Queue[Optional[BaseException]]" = queue.Queue()
        self.protocol: Optional[RoutingProtocol] = None
        self.received: list[Packet] = []
        self.app_received: list[Packet] = []
        self.on_app_packet: Optional[Callable[[Packet], None]] = None
        self.reconnects = 0
        #: Last overload state piggybacked on a server heartbeat
        #: (``"pressured"``/``"saturated"``), or None while nominal.
        self.server_overload: Optional[str] = None
        self.reclaimed = False  # last registration reclaimed the prior VMN
        self.outage_drops = 0  # frames the protocol sent while disconnected
        # Optional observability plane: pass a repro.obs.Telemetry to get
        # tx/rx frame counters and link-outage mirrors on its registry.
        self._m_tx = self._m_rx = None
        if telemetry is not None and getattr(telemetry, "enabled", False):
            reg = telemetry.registry
            self._m_tx = reg.counter(
                "poem_client_frames_sent_total",
                "Data frames this client transmitted to the server",
            )
            self._m_rx = reg.counter(
                "poem_client_frames_received_total",
                "Deliver frames this client received from the server",
            )
            reg.counter_fn(
                "poem_client_reconnects_total",
                "Successful reconnect handshakes",
                lambda: self.reconnects,
            )
            reg.counter_fn(
                "poem_client_outage_drops_total",
                "Frames dropped while the link was down",
                lambda: self.outage_drops,
            )

    # -- connection lifecycle -------------------------------------------------------

    def connect(self) -> NodeId:
        """Register with the server and synchronize the emulation clock.

        The receiver thread dials and runs the handshake; this waits for
        its outcome and re-raises its error.
        """
        if self._running:
            raise TransportError("client already connected")
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_w.setblocking(False)
        self._running = True
        # Supervised, non-restartable: _receive_loop owns its own
        # reconnect logic; a crash *escaping* the loop is a real bug and
        # must land in the thread's health record, not vanish.  Assigned
        # before start: the handshake asks whether it runs on it.
        self._receiver = SupervisedThread(
            f"poem-client-{self._label or hex(id(self))}",
            self._receive_loop,
            restartable=False,
        )
        self._receiver.start()
        error = self._dialed.get()
        if error is not None:
            self._receiver.join()
            self.close()  # closes the wake pair
            raise error
        return self._node_id

    def _dial(self, cause: str) -> None:
        """Connect, register (or re-register) this VMN and run the clock
        sync, on the receiver thread; a failure leaves no socket behind.

        ``cause`` labels the §4.1 sync samples this handshake produces
        (``register`` or ``reconnect``) in the forensics log.
        """
        sock = socket.create_connection(
            self._address, timeout=self._connect_timeout
        )
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            wrap = self._transport_wrapper
            self._sock = sock if wrap is None else wrap(sock)
            self._reader = framing.FrameReader(self._sock)
            self._send(
                {
                    "op": "register",
                    "x": self._position.x,
                    "y": self._position.y,
                    "label": self._label,
                    "radios": [
                        {"channel": int(r.channel), "range": r.range}
                        for r in self._radios.radios
                    ],
                }
            )
            msg, _ = self._await("registered")
            self._node_id = NodeId(int(msg["node"]))
            self.reclaimed = bool(msg.get("reclaimed", False))
            self._stamper = PacketStamper(self._node_id)
            self.synchronize(cause=cause)
            self._sock.settimeout(None)
        except BaseException:
            self._sock = None
            sock.close()
            raise

    def synchronize(
        self, rounds: Optional[int] = None, *, cause: str = "resync"
    ) -> SyncResult:
        """Run the §4.1 exchange ``rounds`` times; keep the min-delay sample.

        The scheme's error is bounded by delay asymmetry; taking the
        exchange with the smallest estimated delay minimizes the bound.
        Callable again at any time — "how to set the synchronization
        frequency is determined by the user" (§4.1).

        Every round's result is reported back (``sync_report``) so the
        recorder's ``sync_samples`` table sees the full exchange history
        — the input of the offline clock-drift audit
        (:mod:`repro.analysis.drift`).  ``cause`` labels the samples:
        ``register``/``reconnect`` from the handshake, ``resync`` when
        called explicitly.
        """
        rounds = rounds if rounds is not None else self._sync_rounds
        best: Optional[SyncResult] = None
        collected: list[tuple[SyncResult, float]] = []
        for _ in range(max(rounds, 1)):
            t_c1 = self._local_clock.now()
            self._send({"op": "sync_req", "t_c1": t_c1})
            msg, t_c4 = self._await("sync_rep", t_c1)
            result = estimate_offset(
                SyncReply(t_s3=float(msg["t_s3"]), echo=float(msg["echo"])),
                t_c4,
            )
            collected.append((result, t_c4))
            if best is None or result.round_trip_delay < best.round_trip_delay:
                best = result
        assert best is not None
        self.clock.set_offset(best.offset)
        self.last_sync = best
        try:
            self._send(
                {
                    "op": "sync_report",
                    "cause": cause,
                    "samples": [
                        {
                            "offset": r.offset,
                            "delay": r.round_trip_delay,
                            "t_server": r.t_s4,
                            "t_client": c4,
                        }
                        for r, c4 in collected
                    ],
                }
            )
        except TransportError:
            pass  # best-effort forensics: the sync itself succeeded
        return best

    def close(self) -> None:
        """Orderly shutdown: stop the protocol, say bye, drop the socket.

        Safe to call from the receiver thread itself (e.g. a protocol
        callback deciding to shut down): the self-join is skipped instead
        of deadlocking on the join timeout.
        """
        if self.protocol is not None:
            self.protocol.stop()
            self.protocol = None
        self._timers.cancel_all()
        self._running = False
        self._wake()  # ends the receiver's wait, a reconnect backoff too
        if self._sock is not None:
            try:
                self._send({"op": "bye"})
            except TransportError:
                pass
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
            self._sock = None
        receiver = self._receiver
        if receiver is not None:
            receiver.join(timeout=2.0)  # no-op from the receiver itself
            self._receiver = None
        if self._wake_r is not None:
            self._wake_r.close()
            self._wake_w.close()

    def __enter__(self) -> "PoEmClient":
        self.connect()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- ProtocolHost -----------------------------------------------------------------

    @property
    def node_id(self) -> NodeId:
        if self._node_id is None:
            raise TransportError("client not connected")
        return self._node_id

    def channels(self) -> frozenset[ChannelId]:
        return self._radios.channels

    def now(self) -> float:
        """Synchronized emulation time (server reference)."""
        return self.clock.now()

    def transmit(
        self,
        destination: NodeId,
        payload: bytes,
        *,
        channel: ChannelId,
        kind: str = "data",
        size_bits: Optional[int] = None,
    ) -> Packet:
        if self._stamper is None:
            raise TransportError("client not connected")
        packet = self._stamper.make_packet(
            destination,
            payload,
            channel=channel,
            kind=kind,
            size_bits=size_bits,
            t_origin=self.now(),  # the parallel time-stamp
        )
        if self._outage.is_set():
            # Link down, reconnect in progress: the frame is lost exactly
            # as a radio frame in a dead spot would be.  The protocol
            # keeps running; its retransmission logic is what's under test.
            self.outage_drops += 1
            return packet
        try:
            self._send_raw(messages.encode_packet_binary("packet", packet))
        except TransportError:
            if self._auto_reconnect and self._running:
                self.outage_drops += 1
                return packet
            raise
        if self._m_tx is not None:
            self._m_tx.inc()
        return packet

    def timers(self) -> TimerService:
        return self._timers

    def deliver_to_app(self, packet: Packet) -> None:
        self.app_received.append(packet)
        if self.on_app_packet is not None:
            self.on_app_packet(packet)

    def attach_protocol(self, protocol: RoutingProtocol) -> None:
        """Embed the protocol under test (real implementation, unmodified)."""
        if self.protocol is not None:
            raise TransportError("client already runs a protocol")
        self.protocol = protocol
        protocol.start(self)

    # -- operator console helpers ------------------------------------------------------

    def scene_op(self, **fields) -> None:
        """Send a topology-control operation (GUI-equivalent) to the server."""
        self._send({"op": "scene_op", **fields})

    # -- internals -------------------------------------------------------------------------

    def _send(self, message: dict) -> None:
        self._send_raw(messages.encode_message(message))

    def _send_raw(self, payload: bytes) -> None:
        if self._sock is None:
            raise TransportError("client not connected")
        # The lock exists precisely to serialize this write: application
        # threads (``send_data``, a traffic sender) and the receiver
        # (pongs, timers) share one socket, and a frame must hit the wire
        # atomically.  Nothing else contends on it.
        with self._send_lock:  # poem: ignore[POEM002]
            framing.send_frame(self._sock, payload)

    def _await(self, op: str, since: float = 0.0) -> tuple[dict, float]:
        """The next ``op`` reply and the local instant it was read.

        On the receiver thread this reads the socket itself and holds
        the deliveries it meets; elsewhere it waits on the reply queue.
        A ``sync_rep`` whose echo is below ``since`` (the ``t_c1`` just
        sent) answers an abandoned round and is skipped.
        """
        on_receiver = self._receiver is not None and self._receiver.is_current()
        until = time.monotonic() + self._connect_timeout
        while True:
            while on_receiver and self._replies.empty():
                frame = self._wait(until)
                if frame is None:  # no reply in time, or closed
                    raise TransportError(f"{op} timed out")
                if messages.is_binary_frame(frame):
                    self._held.append(frame)
                else:
                    self._handle(frame)
            try:
                msg, t_read = self._replies.get(timeout=self._connect_timeout)
            except queue.Empty:
                raise TransportError(f"{op} timed out") from None
            if msg["op"] == op and (op != "sync_rep" or msg["echo"] >= since):
                return msg, t_read

    def _wake(self) -> None:
        """End the receiver's select; a no-op on the receiver itself."""
        receiver = self._receiver
        if self._wake_w is not None and not (receiver and receiver.is_current()):
            try:
                self._wake_w.send(b"\0")
            except OSError:  # closed by close(), or full: awake anyway
                pass

    def _wait(self, until: float = math.inf) -> Optional[bytes]:
        """The receiver's one wait: run timers as they fall due and
        return the next frame; None at ``until`` or once closed.  Selects
        over the socket (none in a reconnect backoff) and the wake pair,
        and only when no whole frame is buffered."""
        wake = self._wake_r
        while self._running:
            head = self._timers.run_due()
            sock, reader = self._sock, self._reader
            if sock is not None and reader.has_frame:
                return reader.recv_frame()
            now = time.monotonic()
            if now >= until:
                return None
            timeout = min(head, until) - now
            try:
                ready = select.select(
                    [wake] if sock is None else [sock, wake], [], [],
                    None if timeout == math.inf else max(timeout, 0.0),
                )[0]
            except (OSError, ValueError) as exc:  # closed under the select
                raise TransportError(f"select failed: {exc}") from exc
            if wake in ready:
                wake.recv(4096)
            if sock in ready:
                frame = reader.recv_frame()
                if frame is None:
                    raise TransportError("server closed the connection")
                return frame
        return None

    def _receive_loop(self) -> None:
        try:
            self._dial("register")
        except BaseException as exc:  # re-raised by connect()
            self._running = False
            self._dialed.put(exc)
            return
        self._dialed.put(None)
        held = self._held
        while self._running:
            try:
                if not held:
                    frame = self._wait()
                    if frame is None:  # closed
                        return
                    held.append(frame)  # behind any a timer's sync held
                frame = held.popleft()
            except TransportError:
                if not (self._running and self._auto_reconnect
                        and self._reconnect()):
                    return
                continue
            self._handle(frame)

    def _handle(self, frame: bytes) -> None:
        """The one decoder: dispatch a delivery, answer a ping, or queue
        a ``registered`` / ``sync_rep`` reply with the instant it was read."""
        try:
            if messages.is_binary_frame(frame):
                bin_op, packet = messages.decode_packet_binary(frame)
                if bin_op == "deliver":
                    if self._m_rx is not None:
                        self._m_rx.inc()
                    self.received.append(packet)
                    if self.protocol is not None:
                        self.protocol.on_packet(packet)
                    elif self.on_app_packet is not None:
                        self.on_app_packet(packet)
                return
            t_read = self._local_clock.now()
            msg = messages.decode_message(frame)
        except TransportError:
            return  # a corrupted frame, or a link lost under a callback
        op = msg.get("op")
        if op in ("registered", "sync_rep"):
            self._replies.put((msg, t_read))
        elif op == "ping":
            self.server_overload = msg.get("overload")
            try:
                self._send(messages.make_pong(msg))
            except TransportError:
                pass  # the dead socket surfaces on the next recv

    # -- reconnect ------------------------------------------------------------------

    def _reconnect(self) -> bool:
        """Re-dial with exponential backoff + jitter; runs on the
        receiver thread.  Returns True when a fresh, synchronized,
        re-registered connection is live again."""
        self._outage.set()
        log_event(
            _log, "client-link-down",
            node=int(self._node_id) if self._node_id is not None else None,
            label=self._label,
        )
        old = self._sock
        self._sock = None
        if old is not None:
            try:
                old.close()
            except OSError:
                pass
        delay = self._reconnect_base
        for _attempt in range(max(self._max_reconnect_attempts, 1)):
            sleep_for = delay * (
                1.0 + self._reconnect_jitter * self._reconnect_rng.random()
            )
            self._wait(time.monotonic() + min(sleep_for, self._reconnect_cap))
            if not self._running:
                return False
            delay = min(delay * 2.0, self._reconnect_cap)
            try:
                self._dial("reconnect")  # sync samples logged as such
            except (TransportError, OSError):
                continue
            self.reconnects += 1
            self._outage.clear()
            log_event(
                _log, "client-reconnected", level=logging.INFO,
                node=int(self._node_id) if self._node_id is not None else None,
                label=self._label, reclaimed=self.reclaimed,
                attempt=_attempt + 1,
            )
            return True
        # Budget exhausted: give up like a powered-off node.
        log_event(
            _log, "client-gave-up",
            node=int(self._node_id) if self._node_id is not None else None,
            label=self._label, attempts=self._max_reconnect_attempts,
            outage_drops=self.outage_drops,
        )
        self._outage.clear()
        self._running = False
        return False
