"""Integration tests for the real-time TCP server/client stack.

These exercise the paper-faithful deployment: real sockets on localhost,
real threads, wall-clock time.  Kept short (fractions of a second of
traffic) so the suite stays fast; the deterministic behaviour is covered
by the virtual-time tests.
"""

import socket
import time

import pytest

from repro.core.client import PoEmClient
from repro.core.geometry import Vec2
from repro.core.ids import (
    BROADCAST_NODE, ChannelId, NodeId, SequenceNumber,
)
from repro.core.packet import Packet
from repro.core.tcpserver import PoEmServer
from repro.models.radio import Radio, RadioConfig
from repro.net import framing, messages
from repro.protocols.common import ProtocolTuning
from repro.protocols.hybrid import HybridProtocol

FAST = ProtocolTuning(hello_interval=0.15, neighbor_timeout=0.5,
                      route_lifetime=1.5)


@pytest.fixture
def server():
    srv = PoEmServer(seed=0, mobility_tick=0.02)
    srv.start()
    yield srv
    srv.stop()


def wait_for(predicate, timeout=5.0, poll=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return False


class TestHandshake:
    def test_register_allocates_node(self, server):
        with PoEmClient(server.address, Vec2(0, 0),
                        RadioConfig.single(1, 100.0)) as client:
            assert client.node_id in server.scene

    def test_disconnect_removes_node(self, server):
        client = PoEmClient(server.address, Vec2(0, 0),
                            RadioConfig.single(1, 100.0))
        node = client.connect()
        client.close()
        assert wait_for(lambda: node not in server.scene)

    def test_clock_sync_small_offset(self, server):
        """Localhost delays are tiny: the synchronized clocks agree."""
        with PoEmClient(server.address, Vec2(0, 0),
                        RadioConfig.single(1, 100.0)) as client:
            assert client.last_sync is not None
            assert client.last_sync.round_trip_delay < 0.1
            # Client emulation clock tracks the server clock closely.
            assert abs(client.now() - server.clock.now()) < 0.05

    def test_resynchronize(self, server):
        with PoEmClient(server.address, Vec2(0, 0),
                        RadioConfig.single(1, 100.0)) as client:
            result = client.synchronize(rounds=3)
            assert result.round_trip_delay >= 0.0


class TestTraffic:
    def test_unicast_between_clients(self, server):
        with PoEmClient(server.address, Vec2(0, 0),
                        RadioConfig.single(1, 100.0)) as a, \
             PoEmClient(server.address, Vec2(50, 0),
                        RadioConfig.single(1, 100.0)) as b:
            a.transmit(b.node_id, b"over-tcp", channel=1)
            assert wait_for(lambda: len(b.received) == 1)
            assert b.received[0].payload == b"over-tcp"
            assert b.received[0].t_origin is not None

    def test_broadcast(self, server):
        with PoEmClient(server.address, Vec2(0, 0),
                        RadioConfig.single(1, 100.0)) as a, \
             PoEmClient(server.address, Vec2(30, 0),
                        RadioConfig.single(1, 100.0)) as b, \
             PoEmClient(server.address, Vec2(0, 30),
                        RadioConfig.single(1, 100.0)) as c:
            a.transmit(BROADCAST_NODE, b"hello-all", channel=1)
            assert wait_for(lambda: b.received and c.received)

    def test_out_of_range_not_delivered(self, server):
        with PoEmClient(server.address, Vec2(0, 0),
                        RadioConfig.single(1, 100.0)) as a, \
             PoEmClient(server.address, Vec2(5000, 0),
                        RadioConfig.single(1, 100.0)) as b:
            a.transmit(b.node_id, b"void", channel=1)
            time.sleep(0.3)
            assert b.received == []
            assert server.engine.dropped >= 1

    def test_traffic_recorded_with_client_stamps(self, server):
        with PoEmClient(server.address, Vec2(0, 0),
                        RadioConfig.single(1, 100.0)) as a, \
             PoEmClient(server.address, Vec2(50, 0),
                        RadioConfig.single(1, 100.0)) as b:
            a.transmit(b.node_id, b"x", channel=1)
            assert wait_for(lambda: len(server.recorder.packets()) >= 1)
            rec = server.recorder.packets()[0]
            # Parallel time-stamping: receipt anchored at the client stamp.
            assert rec.t_receipt == rec.t_origin


class TestSceneOps:
    def test_remote_scene_op(self, server):
        with PoEmClient(server.address, Vec2(0, 0),
                        RadioConfig.single(1, 100.0)) as a, \
             PoEmClient(server.address, Vec2(50, 0),
                        RadioConfig.single(1, 100.0)) as b:
            a.scene_op(scene="move", node=int(b.node_id), x=4000.0, y=0.0)
            assert wait_for(
                lambda: server.scene.position(b.node_id).x == 4000.0
            )
            a.transmit(b.node_id, b"gone", channel=1)
            time.sleep(0.3)
            assert b.received == []

    def test_remote_set_channel_and_range(self, server):
        with PoEmClient(server.address, Vec2(0, 0),
                        RadioConfig.single(1, 100.0)) as a:
            a.scene_op(scene="set_channel", node=int(a.node_id), radio=0,
                       channel=5)
            assert wait_for(
                lambda: 5 in server.scene.channels_of(a.node_id)
            )
            a.scene_op(scene="set_range", node=int(a.node_id), radio=0,
                       range=33.0)
            assert wait_for(
                lambda: server.scene.radios(a.node_id)[0].range == 33.0
            )


class TestProtocolOverTcp:
    def test_hybrid_converges_and_delivers(self, server):
        """The same HybridProtocol class, unmodified, over real sockets."""
        clients = []
        try:
            for x in (0.0, 80.0, 160.0):
                c = PoEmClient(server.address, Vec2(x, 0),
                               RadioConfig.single(1, 100.0))
                c.connect()
                c.attach_protocol(HybridProtocol(FAST))
                clients.append(c)
            a, _, c = clients
            assert wait_for(
                lambda: len(a.protocol.route_summary()) >= 2, timeout=8.0
            ), f"routes: {a.protocol.route_summary()}"
            a.protocol.send_data(c.node_id, b"tcp-multihop")
            assert wait_for(lambda: len(c.app_received) == 1, timeout=8.0)
            assert c.app_received[0].payload == b"tcp-multihop"
        finally:
            for c in clients:
                c.close()

    def test_server_context_manager(self):
        with PoEmServer(seed=1) as srv:
            host, port = srv.address
            assert port > 0


class TestServerRobustness:
    def test_garbage_client_does_not_kill_server(self, server):
        """A raw socket spewing garbage gets dropped; other clients are
        unaffected."""
        import socket as socket_mod

        from repro.net import framing

        with PoEmClient(server.address, Vec2(0, 0),
                        RadioConfig.single(1, 100.0)) as good_a, \
             PoEmClient(server.address, Vec2(50, 0),
                        RadioConfig.single(1, 100.0)) as good_b:
            evil = socket_mod.create_connection(server.address, timeout=2.0)
            try:
                # A framed message that isn't JSON at all.
                framing.send_frame(evil, b"\xff\x00garbage")
                time.sleep(0.2)
                # And raw unframed noise on a second connection.
                evil2 = socket_mod.create_connection(server.address,
                                                     timeout=2.0)
                evil2.sendall(b"\x00\x00\x00")  # truncated header
                evil2.close()
                time.sleep(0.2)
            finally:
                evil.close()
            # The well-behaved pair still works end to end.
            good_a.transmit(good_b.node_id, b"after-garbage", channel=1)
            assert wait_for(lambda: len(good_b.received) == 1)

    def test_unknown_op_drops_only_that_client(self, server):
        import socket as socket_mod

        from repro.net import framing, messages

        sock = socket_mod.create_connection(server.address, timeout=2.0)
        try:
            framing.send_frame(
                sock, messages.encode_message({"op": "frobnicate"})
            )
            # Server closes our connection (recv returns None/EOF).
            sock.settimeout(2.0)
            assert framing.recv_frame(sock) is None
        finally:
            sock.close()
        # Server still accepts new clients afterwards.
        with PoEmClient(server.address, Vec2(0, 0),
                        RadioConfig.single(1, 100.0)) as late:
            assert late.node_id in server.scene

    @pytest.mark.parametrize("fields", [
        {"radios": [{"channel": 1, "range": 100.0,
                     "link": {"bw_peak": float("nan")}}]},
        {"radios": [{"channel": 1, "range": 100.0,
                     "link": {"delay": float("inf")}}]},
        {"radios": [{"channel": 1, "range": float("nan")}]},
        {"x": float("nan")},
        {"y": float("-inf")},
    ], ids=["nan-bandwidth", "inf-delay", "nan-range", "nan-x", "inf-y"])
    def test_non_finite_register_drops_only_that_client(self, server, fields):
        """JSON carries NaN and Infinity.  A register with a non-finite
        position, link or radio parameter adds no node and closes only
        its own connection; it would otherwise schedule frames at a NaN
        forward time, or place a node no one can hear.  Another pair
        still delivers."""
        sock = socket.create_connection(server.address, timeout=5.0)
        try:
            framing.send_frame(sock, messages.encode_message({
                "op": "register", "x": 0.0, "y": 50.0, "label": "",
                "radios": [{"channel": 1, "range": 100.0}], **fields,
            }))
            reader = framing.FrameReader(sock)
            while reader.recv_frame() is not None:
                pass  # the server closed this connection
        finally:
            sock.close()
        assert any("finite" in f["error"]
                   for f in server.health()["recent_failures"])
        assert list(server.scene.node_ids()) == []
        with PoEmClient(server.address, Vec2(0, 0),
                        RadioConfig.single(1, 100.0)) as a, \
             PoEmClient(server.address, Vec2(40, 0),
                        RadioConfig.single(1, 100.0)) as b:
            a.transmit(b.node_id, b"after-nan", channel=1)
            assert wait_for(lambda: len(b.received) == 1)

    def test_double_start_rejected(self, server):
        from repro.errors import TransportError

        with pytest.raises(TransportError):
            server.start()

    def test_stop_idempotent(self):
        srv = PoEmServer(seed=0)
        srv.start()
        srv.stop()
        srv.stop()  # second stop is a no-op


class TestLoopRobustness:
    """What a thread per client gave for free, the one loop must
    provide on purpose."""

    def test_handler_crash_closes_only_that_connection(self, server):
        """An unexpected exception (a bug, not a protocol violation)
        while handling one client's frame is recorded and costs that
        client its connection; everyone else's traffic keeps flowing."""
        with PoEmClient(server.address, Vec2(0, 0),
                        RadioConfig.single(1, 100.0)) as a, \
             PoEmClient(server.address, Vec2(50, 0),
                        RadioConfig.single(1, 100.0)) as b:
            victim = PoEmClient(server.address, Vec2(0, 50),
                                RadioConfig.single(1, 100.0))
            victim_node = victim.connect()
            real_ingest = server.engine.ingest

            def sabotaged(sender, packet, **kwargs):
                if sender == victim_node:
                    raise RuntimeError("injected handler crash")
                return real_ingest(sender, packet, **kwargs)

            server.engine.ingest = sabotaged
            try:
                victim.transmit(a.node_id, b"boom", channel=1)
                assert wait_for(lambda: any(
                    "injected handler crash" in f["error"]
                    for f in server.health()["recent_failures"]
                ))
                assert wait_for(
                    lambda: int(victim_node)
                    not in server.health()["clients"]
                )
                health = server.health()
                assert set(health["clients"]) == {
                    int(a.node_id), int(b.node_id)
                }
                loop = health["threads"]["poem-loop"]
                assert loop["alive"] and loop["failures"] == 0
                a.transmit(b.node_id, b"unharmed", channel=1)
                assert wait_for(lambda: len(b.received) == 1)
            finally:
                del server.engine.ingest
                victim.close()

    @pytest.mark.parametrize("clients", [0, 2])
    def test_stop_returns_promptly_from_an_idle_select(self, clients):
        """No heartbeat, nothing scheduled: the loop sits in a 50 ms
        select (scan_poll x 25).  stop() must not wait that out per
        thread, let alone a join timeout."""
        srv = PoEmServer(seed=0, heartbeat_interval=0.0, scan_poll=0.2)
        srv.start()
        connected = [
            PoEmClient(srv.address, Vec2(10.0 * i, 0),
                       RadioConfig.single(1, 100.0))
            for i in range(clients)
        ]
        try:
            for c in connected:
                c.connect()
            time.sleep(0.1)  # let the loop go idle
            start = time.monotonic()
            srv.stop()
            assert time.monotonic() - start < 1.0
            assert not any(
                t["alive"] for t in srv.health()["threads"].values()
            )
        finally:
            for c in connected:
                c.close()
            srv.stop()

    def test_loop_crash_restarts_with_connections_intact(self, server):
        """Crash the loop itself once (as the mobility test does its
        thread): the supervisor restarts it and the clients that were
        connected never notice."""
        with PoEmClient(server.address, Vec2(0, 0),
                        RadioConfig.single(1, 100.0)) as a, \
             PoEmClient(server.address, Vec2(50, 0),
                        RadioConfig.single(1, 100.0)) as b:
            real_flush = server.engine.flush_wait
            state = {"armed": True}

            def sabotaged(now):
                if state["armed"]:
                    state["armed"] = False
                    raise RuntimeError("injected loop crash")
                return real_flush(now)

            server.engine.flush_wait = sabotaged
            try:
                assert wait_for(
                    lambda: server.health()["threads"]["poem-loop"]
                    ["restarts"] >= 1
                )
            finally:
                del server.engine.flush_wait
            health = server.health()
            loop = health["threads"]["poem-loop"]
            assert loop["last_error"] == "RuntimeError: injected loop crash"
            assert wait_for(
                lambda: server.health()["threads"]["poem-loop"]["alive"]
            )
            # Both registrations survived whole: same nodes, no quarantine.
            assert set(health["clients"]) == {int(a.node_id), int(b.node_id)}
            assert health["quarantined"] == {}
            a.transmit(b.node_id, b"after-the-crash", channel=1)
            assert wait_for(lambda: len(b.received) == 1)
            assert b.received[0].payload == b"after-the-crash"
            # And the restarted loop still admits new clients.
            with PoEmClient(server.address, Vec2(0, 50),
                            RadioConfig.single(1, 100.0)) as late:
                assert late.node_id in server.scene


class TestProfiledServer:
    def test_profiled_run_persists_profile_scene_event(self):
        """A ``profile_hz`` server recording must be readable back with
        ``poem profile <db>``: stop() persists the sampler's snapshot as
        a ``profile`` scene event and releases the process default."""
        from repro.obs import profiler as profiler_mod

        srv = PoEmServer(seed=0, profile_hz=200.0)
        srv.start()
        try:
            srv.profiler.sample_once()  # deterministic even on slow CI
        finally:
            srv.stop()
        assert not srv.profiler.running
        assert profiler_mod.get_default() is None
        profiles = [
            e for e in srv.recorder.scene_events() if e.kind == "profile"
        ]
        assert len(profiles) == 1
        stacks = profiles[0].details["stacks"]
        assert stacks and all(k.startswith("server;") for k in stacks)


class TestBinaryNegotiation:
    """Packets ride 0xB1 frames only: nothing is negotiated at
    registration, and JSON carries control messages alone."""

    def test_json_packet_op_is_a_protocol_error(self, server):
        """A JSON ``packet`` op is an unknown op: the failure is on
        record, only that connection is dropped, and other clients keep
        exchanging packets."""
        sock = socket.create_connection(server.address, timeout=5.0)
        try:
            framing.send_frame(sock, messages.encode_message({
                "op": "register", "x": 0.0, "y": 50.0, "label": "",
                "radios": [{"channel": 1, "range": 100.0}],
            }))
            reader = framing.FrameReader(sock)
            while True:  # server heartbeats may interleave with the reply
                reply = messages.decode_message(reader.recv_frame())
                if reply["op"] == "registered":
                    break
            assert set(reply) == {"op", "node", "reclaimed"}
            node = reply["node"]
            with PoEmClient(server.address, Vec2(0, 0),
                            RadioConfig.single(1, 100.0)) as a, \
                 PoEmClient(server.address, Vec2(40, 0),
                            RadioConfig.single(1, 100.0)) as b:
                framing.send_frame(sock, messages.encode_message({
                    "op": "packet",
                    "packet": {
                        "src": node, "dst": int(a.node_id),
                        "payload": "json-era", "bits": 64, "seq": 1,
                        "ch": 1,
                    },
                }))
                assert wait_for(lambda: any(
                    "unknown op: 'packet'" in f["error"]
                    for f in server.health()["recent_failures"]
                ))
                assert wait_for(
                    lambda: node not in server.health()["clients"]
                )
                assert set(server.health()["clients"]) == {
                    int(a.node_id), int(b.node_id)
                }
                while reader.recv_frame() is not None:
                    pass  # the server closed this connection
                a.transmit(b.node_id, b"still-flowing", channel=1)
                assert wait_for(lambda: len(b.received) == 1)
                assert b.received[0].payload == b"still-flowing"
                assert a.received == []
        finally:
            sock.close()

    def test_mixed_encodings_interoperate(self, server):
        """JSON control frames and 0xB1 packet frames share one
        connection: a raw peer that registers over JSON and hand-encodes
        its packets exchanges them both ways with a ``PoEmClient``."""
        sock = socket.create_connection(server.address, timeout=5.0)
        try:
            framing.send_frame(sock, messages.encode_message({
                "op": "register", "x": 40.0, "y": 0.0, "label": "",
                "radios": [{"channel": 1, "range": 100.0}],
            }))
            reader = framing.FrameReader(sock)

            def next_deliver():
                while True:  # skip the JSON control frames in between
                    frame = reader.recv_frame()
                    assert frame is not None, "server closed the peer"
                    if messages.is_binary_frame(frame):
                        return messages.decode_packet_binary(frame)

            while True:
                reply = messages.decode_message(reader.recv_frame())
                if reply["op"] == "registered":
                    break
            raw = NodeId(reply["node"])
            with PoEmClient(server.address, Vec2(0, 0),
                            RadioConfig.single(1, 100.0)) as client:
                client.transmit(raw, b"\x00client->raw\xff", channel=1)
                op, got = next_deliver()
                assert op == "deliver"
                assert got.payload == b"\x00client->raw\xff"
                assert got.source == client.node_id
                assert got.t_forward is not None
                assert got.t_delivered is not None
                framing.send_frame(sock, messages.encode_packet_binary(
                    "packet", Packet(
                        source=raw, destination=client.node_id,
                        payload=b"raw->client", size_bits=88,
                        seqno=SequenceNumber(1), channel=ChannelId(1),
                        t_origin=client.now(),
                    ),
                ))
                assert wait_for(lambda: len(client.received) == 1)
                assert client.received[0].payload == b"raw->client"
                assert client.received[0].source == raw
                assert client.received[0].t_forward is not None
                assert client.received[0].t_delivered is not None
        finally:
            sock.close()

    def test_binary_broadcast(self, server):
        clients = [
            PoEmClient(server.address, Vec2(10.0 * i, 0),
                       RadioConfig.single(1, 100.0))
            for i in range(3)
        ]
        try:
            for c in clients:
                c.connect()
            clients[0].transmit(BROADCAST_NODE, b"bcast", channel=1)
            assert wait_for(
                lambda: all(len(c.received) == 1 for c in clients[1:])
            )
            # Stamps survive the hop.
            for c in clients[1:]:
                assert c.received[0].payload == b"bcast"
                assert c.received[0].t_forward is not None
                assert c.received[0].t_delivered is not None
        finally:
            for c in clients:
                c.close()

    def test_broadcast_group_encodes_its_deliver_frame_once(
        self, server, monkeypatch
    ):
        """A 1 -> 3 broadcast is one delivered group: the server encodes
        its ``deliver`` frame once, the three outboxes share the bytes,
        and every client decodes exactly those bytes."""
        encoded = []
        encode = messages.encode_packet_binary

        def counting_encode(op, packet):
            frame = encode(op, packet)
            if op == "deliver":
                encoded.append(frame)
            return frame

        monkeypatch.setattr(messages, "encode_packet_binary", counting_encode)
        clients = [
            PoEmClient(server.address, Vec2(10.0 * i, 0),
                       RadioConfig.single(1, 100.0))
            for i in range(4)
        ]
        try:
            for c in clients:
                c.connect()
            clients[0].transmit(BROADCAST_NODE, b"group", channel=1)
            assert wait_for(
                lambda: all(len(c.received) == 1 for c in clients[1:])
            )
            assert len(encoded) == 1
            for c in clients[1:]:
                assert encode("deliver", c.received[0]) == encoded[0]
        finally:
            for c in clients:
                c.close()
