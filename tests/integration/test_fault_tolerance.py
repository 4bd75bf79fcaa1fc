"""Chaos tests: the fault-tolerance layer under deterministic faults.

Each test kills, stalls, or corrupts one client of a live
:class:`~repro.core.tcpserver.PoEmServer` via the seeded
:mod:`repro.net.faults` harness and asserts the server degrades
gracefully: quarantine + ``node-stale`` drops + eventual removal for
silent clients, a clean connection close (no thread leaks — enforced by
the autouse conftest fixture) for framing violations, recorded
``transport-overflow`` drops for slow readers, and label-based VMN
reclamation + a fresh §4.1 clock sync for reconnecting clients.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.core.client import PoEmClient
from repro.core.clock import VirtualClock
from repro.core.geometry import Vec2
from repro.core.ids import ChannelId, NodeId
from repro.core.packet import DropReason, Packet
from repro.core.tcpserver import PoEmServer
from repro.errors import TransportError
from repro.models.radio import RadioConfig
from repro.net import framing, messages
from repro.net.faults import FaultSpec, FaultyTransport, LinkFaultInjector
from repro.net.virtual import LatencySpec, VirtualLink
from repro.stats.report import build_report

RADIOS = RadioConfig.single(1, 100.0)


def wait_for(predicate, timeout=8.0, poll=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return False


def raw_register(address, x, y, label="", timeout=5.0, rcvbuf=None):
    """Register a bare socket as a VMN; returns (socket, node_id).

    ``rcvbuf`` sets ``SO_RCVBUF`` before the connect: the window the
    handshake advertises is sized from it, so setting it afterwards
    leaves the loopback window large."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    if rcvbuf is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.settimeout(timeout)
    sock.connect(address)
    framing.send_frame(
        sock,
        messages.encode_message(
            {
                "op": "register",
                "x": x,
                "y": y,
                "label": label,
                "radios": [{"channel": 1, "range": 100.0}],
            }
        ),
    )
    while True:  # server heartbeats may interleave with the reply
        frame = framing.recv_frame(sock)
        assert frame is not None, "server closed during raw register"
        msg = messages.decode_message(frame)
        if msg["op"] == "registered":
            return sock, int(msg["node"])


class TestHungClientQuarantine:
    """A blackholed (hung) client: heartbeats are the only detector."""

    def test_grace_period_then_removal(self):
        srv = PoEmServer(
            seed=0,
            mobility_tick=0.02,
            heartbeat_interval=0.1,
            heartbeat_misses=2,
            stale_grace=1.0,
        )
        srv.start()
        a = b = c = None
        try:
            a = PoEmClient(srv.address, Vec2(0, 0), RADIOS, sync_rounds=2)
            b = PoEmClient(srv.address, Vec2(50, 0), RADIOS, sync_rounds=2)
            # c's transport goes silent after 6 sends: the socket stays
            # open but nothing flows — a hung process, not a dead one.
            c = PoEmClient(
                srv.address,
                Vec2(50, 50),
                RADIOS,
                sync_rounds=2,
                transport_wrapper=lambda s: FaultyTransport(
                    s, FaultSpec(blackhole_after=6), seed=7
                ),
            )
            a.connect()
            b.connect()
            c_node = c.connect()
            # Burn c's remaining send budget; it then goes dark.
            for _ in range(4):
                c.transmit(a.node_id, b"last words", channel=1)
            assert c._sock.injected["blackhole"] >= 0  # wrapper installed

            # Missed heartbeats quarantine the VMN — but keep it in the
            # scene for the grace period.
            assert wait_for(lambda: srv.scene.is_quarantined(c_node))
            assert c_node in srv.scene
            health = srv.health()
            assert health["clients"][int(c_node)]["stale"] is True
            assert int(c_node) in health["quarantined"]

            # Traffic to the quarantined node drops as node-stale.
            a.transmit(c_node, b"into-the-void", channel=1)
            assert wait_for(
                lambda: any(
                    p.drop_reason == DropReason.NODE_STALE
                    for p in srv.recorder.packets()
                )
            )

            # Healthy clients are unaffected throughout.
            a.transmit(b.node_id, b"still-alive", channel=1)
            assert wait_for(
                lambda: any(p.payload == b"still-alive" for p in b.received)
            )

            # Grace over: the node is removed for real.
            assert wait_for(lambda: c_node not in srv.scene)
            assert wait_for(
                lambda: int(c_node) not in srv.health()["clients"]
            )
        finally:
            for cl in (a, b, c):
                if cl is not None:
                    cl.close()
            srv.stop()


class TestTruncatedFrames:
    """Mid-frame cuts: the peer sees a FramingError, nothing leaks."""

    def test_framing_error_closes_only_that_client(self):
        srv = PoEmServer(
            seed=0,
            mobility_tick=0.02,
            heartbeat_interval=0.1,
            heartbeat_misses=2,
            stale_grace=0.3,
        )
        srv.start()
        good = None
        try:
            good = PoEmClient(srv.address, Vec2(0, 0), RADIOS, sync_rounds=2)
            good.connect()
            sock, victim = raw_register(srv.address, 30.0, 0.0)
            faulty = FaultyTransport(sock, FaultSpec(truncate=1.0), seed=1)
            packet_msg = messages.encode_packet_binary(
                "packet",
                Packet(
                    source=NodeId(victim),
                    destination=good.node_id,
                    payload=b"cut me off",
                    size_bits=80,
                    seqno=1,
                    channel=ChannelId(1),
                    t_origin=0.0,
                ),
            )
            # The injected truncation cuts the frame mid-body and forces
            # the socket closed; our side surfaces it as a send failure.
            with pytest.raises(TransportError):
                framing.send_frame(faulty, packet_msg)
            assert faulty.injected["truncate"] == 1

            # The server recorded the FramingError against that client's
            # receiver thread and dropped only that connection.
            assert wait_for(
                lambda: any(
                    "FramingError" in f["error"]
                    for f in srv.health()["recent_failures"]
                )
            )
            # Unexpected death -> quarantined for the (short) grace, then
            # removed by the heartbeat loop.
            assert wait_for(lambda: victim not in srv.scene)

            # The surviving client still works end to end.
            late = PoEmClient(srv.address, Vec2(10, 0), RADIOS, sync_rounds=2)
            late.connect()
            try:
                good.transmit(late.node_id, b"after-the-cut", channel=1)
                assert wait_for(
                    lambda: any(
                        p.payload == b"after-the-cut" for p in late.received
                    )
                )
            finally:
                late.close()
        finally:
            if good is not None:
                good.close()
            srv.stop()
        # No poem-* threads may survive: enforced by the autouse
        # no_thread_leaks fixture in conftest.py.


class TestOutboxBackpressure:
    """A slow reader fills its bounded outbox; overflow is recorded."""

    def test_overflow_recorded_as_transport_drops(self):
        srv = PoEmServer(
            seed=0,
            mobility_tick=0.02,
            heartbeat_interval=0.0,  # isolate backpressure from liveness
            stale_grace=0.0,
            outbox_limit=4,
        )
        srv.start()
        sender = None
        slow = None
        try:
            sender = PoEmClient(srv.address, Vec2(0, 0), RADIOS,
                                sync_rounds=2)
            sender.connect()
            # The slow client registers but never reads: once the kernel
            # buffers fill, the loop holds an unsent tail for it and the
            # bounded outbox starts displacing its oldest frames.
            slow, slow_node = raw_register(
                srv.address, 10.0, 0.0, rcvbuf=4096
            )
            payload = b"#" * 32768

            def overflowed():
                return srv.health()["clients"].get(slow_node, {}).get(
                    "overflow", 0
                ) > 0

            # Transmit in bounded rounds until the buffers, however large
            # the host made them, are full and the outbox overflows.
            deadline = time.monotonic() + 10.0
            while not overflowed() and time.monotonic() < deadline:
                for _ in range(20):
                    sender.transmit(slow_node, payload, channel=1)
                wait_for(overflowed, timeout=0.25)
            assert wait_for(
                overflowed, timeout=max(deadline - time.monotonic(), 0.0)
            ), f"health: {srv.health()['clients']}"

            # Overflow reaches the recorder as transport-overflow drops…
            assert wait_for(
                lambda: any(
                    p.drop_reason == DropReason.TRANSPORT_OVERFLOW
                    for p in srv.recorder.packets()
                )
            )
            # …and the statistics layer classifies them as transport (not
            # radio-medium) loss.
            report = build_report(srv.recorder)
            assert report.transport_dropped > 0
            assert DropReason.TRANSPORT_OVERFLOW in report.drop_reasons
        finally:
            if slow is not None:
                slow.close()
            if sender is not None:
                sender.close()
            srv.stop()


    def test_slow_client_never_stalls_the_others(self):
        """While a non-reading client sits at ``overflow > 0`` — its
        socket full, the loop holding an unsent tail for it — a healthy
        pair's deliveries stay on schedule.  One blocking write to the
        slow client would put seconds, not milliseconds, on every one of
        them; the 90th percentile is asserted so a single host hiccup
        cannot fail the test."""
        srv = PoEmServer(
            seed=0,
            mobility_tick=0.02,
            heartbeat_interval=0.0,
            stale_grace=0.0,
            outbox_limit=4,
        )
        srv.start()
        clients = []
        slow = None
        try:
            for x in (0.0, 20.0, 40.0):
                clients.append(
                    PoEmClient(srv.address, Vec2(x, 0), RADIOS, sync_rounds=2)
                )
                clients[-1].connect()
            flooder, a, b = clients
            slow, slow_node = raw_register(srv.address, 10.0, 0.0)
            slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            payload = b"#" * 32768

            def overflowed():
                return srv.health()["clients"].get(slow_node, {}).get(
                    "overflow", 0
                )

            # Fill the kernel's buffers for the slow client, however large
            # the host made them, until its bounded outbox overflows.
            for _ in range(40):
                for _ in range(20):
                    flooder.transmit(
                        slow_node, payload, channel=1, size_bits=512
                    )
                if wait_for(lambda: overflowed() > 0, timeout=0.25):
                    break
            before = overflowed()
            assert before > 0, srv.health()["clients"]
            for i in range(200):
                a.transmit(b.node_id, b"on-time", channel=1, size_bits=512)
                if i % 10 == 0:  # keep the slow client's outbox overflowing
                    flooder.transmit(
                        slow_node, payload, channel=1, size_bits=512
                    )
                time.sleep(0.002)
            assert wait_for(lambda: len(b.received) == 200)
            assert overflowed() > before
            lags = sorted(p.t_delivered - p.t_forward for p in b.received)
            assert lags[int(0.9 * len(lags))] < 0.005, lags[-20:]
        finally:
            if slow is not None:
                slow.close()
            for c in clients:
                c.close()
            srv.stop()

    def test_large_frame_to_slow_reader_arrives_intact_and_in_order(self):
        """A 1 MiB frame to a client with a 4 KiB receive buffer that
        reads slowly leaves in many partial writes; it must arrive whole,
        followed in order by the small frames queued behind it — never
        interleaved with them, never dropped half-written."""
        srv = PoEmServer(seed=0, mobility_tick=0.02, heartbeat_interval=0.0)
        srv.start()
        sender = None
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            # Before connect(), or the window was already negotiated.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(10.0)
            sock.connect(srv.address)
            framing.send_frame(sock, messages.encode_message({
                "op": "register", "x": 10.0, "y": 0.0, "label": "",
                "radios": [{"channel": 1, "range": 100.0}],
            }))
            reader = framing.FrameReader(sock)
            registered = messages.decode_message(reader.recv_frame())
            node = registered["node"]
            sender = PoEmClient(srv.address, Vec2(0, 0), RADIOS, sync_rounds=2)
            sender.connect()
            big = bytes(range(256)) * 4096  # 1 MiB
            sender.transmit(node, big, channel=1, size_bits=512)
            for i in range(20):
                sender.transmit(node, b"small-%d" % i, channel=1,
                                size_bits=512)
            assert wait_for(lambda: srv.engine.forwarded == 21)

            class Slow:  # 16 KiB per read, a pause before each
                def recv(self, _n):
                    time.sleep(0.002)
                    return sock.recv(16384)

            reader._sock = Slow()
            got = []
            while len(got) < 21:
                op, packet = messages.decode_packet_binary(reader.recv_frame())
                assert op == "deliver"
                got.append(packet.payload)
            assert got[0] == big
            assert got[1:] == [b"small-%d" % i for i in range(20)]
            assert srv.health()["clients"][node]["overflow"] == 0
        finally:
            sock.close()
            if sender is not None:
                sender.close()
            srv.stop()


class TestClientReconnect:
    """Auto-reconnect: back off, re-register, reclaim, resync, resume."""

    def test_reconnect_reclaims_node_and_resyncs(self):
        srv = PoEmServer(
            seed=0,
            mobility_tick=0.02,
            heartbeat_interval=0.1,
            heartbeat_misses=2,
            stale_grace=3.0,
        )
        srv.start()
        phoenix = None
        peer = None
        try:
            peer = PoEmClient(srv.address, Vec2(40, 0), RADIOS,
                              sync_rounds=2)
            peer.connect()

            # First connection dies mid-stream after 6 sends; the
            # replacement socket is left healthy.
            state = {"first": True}

            def wrapper(sock):
                if state["first"]:
                    state["first"] = False
                    return FaultyTransport(
                        sock, FaultSpec(disconnect_after=6), seed=3
                    )
                return sock

            phoenix = PoEmClient(
                srv.address,
                Vec2(0, 0),
                RADIOS,
                label="phoenix",
                sync_rounds=2,
                auto_reconnect=True,
                reconnect_base=0.02,
                reconnect_cap=0.2,
                max_reconnect_attempts=20,
                reconnect_seed=11,
                transport_wrapper=wrapper,
            )
            old_node = phoenix.connect()
            old_sync = phoenix.last_sync
            assert old_sync is not None

            # Trigger the mid-stream disconnect with a burst of traffic
            # (frames sent during the outage count as radio silence).
            for _ in range(10):
                phoenix.transmit(peer.node_id, b"burst", channel=1)
                time.sleep(0.01)
            assert wait_for(lambda: phoenix.reconnects >= 1)

            # Same label within the grace period: the VMN is reclaimed —
            # same node id, quarantine lifted, routes preserved.
            assert phoenix.reclaimed is True
            assert phoenix.node_id == old_node
            assert old_node in srv.scene
            assert wait_for(
                lambda: not srv.scene.is_quarantined(old_node)
            )
            assert wait_for(lambda: srv.health()["quarantined"] == {})

            # The reconnect re-ran the §4.1 sync: a fresh measurement.
            assert phoenix.last_sync is not None
            assert phoenix.last_sync is not old_sync
            assert abs(phoenix.now() - srv.clock.now()) < 0.05

            # End-to-end traffic resumes on the reclaimed identity.
            phoenix.transmit(peer.node_id, b"after-reconnect", channel=1)
            assert wait_for(
                lambda: any(
                    p.payload == b"after-reconnect" for p in peer.received
                )
            )
            assert phoenix.outage_drops >= 1  # the outage was real
        finally:
            if phoenix is not None:
                phoenix.close()
            if peer is not None:
                peer.close()
            srv.stop()

    def test_no_reconnect_when_disabled(self):
        srv = PoEmServer(seed=0, heartbeat_interval=0.1, stale_grace=0.2)
        srv.start()
        try:
            client = PoEmClient(
                srv.address,
                Vec2(0, 0),
                RADIOS,
                sync_rounds=2,
                transport_wrapper=lambda s: FaultyTransport(
                    s, FaultSpec(disconnect_after=5), seed=2
                ),
            )
            node = client.connect()
            try:
                with pytest.raises(TransportError):
                    for _ in range(10):
                        client.transmit(node, b"x", channel=1)
                        time.sleep(0.01)
                assert client.reconnects == 0
                assert wait_for(lambda: node not in srv.scene)
            finally:
                client.close()
        finally:
            srv.stop()


class TestVirtualLinkInjection:
    """The same seeded schedule drives the in-process transport."""

    def _run_once(self, seed):
        clock = VirtualClock()
        link = VirtualLink(clock, LatencySpec(base=0.001))
        injector = LinkFaultInjector(
            FaultSpec(drop=0.4, duplicate=0.3, delay=0.002), seed=seed
        )
        link.fault_injector = injector
        got: list[bytes] = []
        link.on_receive("b", got.append)
        link.on_receive("a", lambda data: None)
        for i in range(50):
            link.send("a", f"msg-{i}".encode())
        clock.run_until(1.0)
        return link, injector, got

    def test_drops_duplicates_and_delays_fire(self):
        link, injector, got = self._run_once(seed=5)
        assert injector.injected["drop"] > 0
        assert injector.injected["duplicate"] > 0
        assert link.faulted["a"] == injector.injected["drop"]
        # delivered = survivors + one extra copy per duplicate
        survivors = 50 - injector.injected["drop"]
        assert len(got) == survivors + injector.injected["duplicate"]

    def test_schedule_is_deterministic(self):
        _, inj1, got1 = self._run_once(seed=5)
        _, inj2, got2 = self._run_once(seed=5)
        assert dict(inj1.injected) == dict(inj2.injected)
        assert got1 == got2

    def test_spec_validation(self):
        from repro.errors import FaultInjectionError

        with pytest.raises(FaultInjectionError):
            FaultSpec(drop=1.5)
        with pytest.raises(FaultInjectionError):
            FaultSpec(delay=-1.0)
        with pytest.raises(FaultInjectionError):
            FaultSpec(disconnect_after=-2)
