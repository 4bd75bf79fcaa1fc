"""The client's one socket reader: the receiver thread runs the handshake,
every sync wait and every dispatch, so no frame is lost or reordered
whichever thread asks for a reply."""

import socket
import threading
import time

import pytest

from repro.core.client import PoEmClient
from repro.core.geometry import Vec2
from repro.core.ids import ChannelId, NodeId, SequenceNumber
from repro.core.packet import Packet
from repro.core.tcpserver import PoEmServer
from repro.errors import TransportError
from repro.models.radio import RadioConfig
from repro.net import framing, messages

RADIOS = RadioConfig.single(1, 100.0)


def wait_for(predicate, timeout=5.0, poll=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return False


@pytest.fixture
def server():
    srv = PoEmServer(seed=0)
    srv.start()
    yield srv
    srv.stop()


def test_sync_from_a_delivery_callback_loses_no_delivery(server):
    """A ``synchronize()`` called from ``on_app_packet`` runs on the
    receiver thread: it reads the socket itself, and the deliveries it
    meets are dispatched after it, in wire order."""
    with PoEmClient(server.address, Vec2(0, 0), RADIOS, sync_rounds=2) as a, \
         PoEmClient(server.address, Vec2(40, 0), RADIOS, sync_rounds=2) as b:
        syncs = []

        def on_app(_packet):
            if len(b.received) % 50 == 1:
                syncs.append(b.synchronize(rounds=2))

        b.on_app_packet = on_app
        for i in range(200):
            a.transmit(b.node_id, b"%03d" % i, channel=ChannelId(1),
                       size_bits=512)
        assert wait_for(lambda: len(b.received) == 200)
        assert [p.payload for p in b.received] == [
            b"%03d" % i for i in range(200)
        ]
        assert len(syncs) == 4


def test_unanswered_connect_times_out_again_and_leaves_nothing():
    """A listener that never answers: each ``connect()`` raises the
    handshake timeout, and leaves neither a socket nor a thread."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = PoEmClient(listener.getsockname(), Vec2(0, 0), RADIOS,
                            label="mute", connect_timeout=0.2)
        for _ in range(2):
            with pytest.raises(TransportError, match="timed out"):
                client.connect()
            assert client._sock is None
            assert not any(t.name == "poem-client-mute"
                           for t in threading.enumerate())


def _deliver(i):
    packet = Packet(
        source=NodeId(1), destination=NodeId(7), payload=b"d%d" % i,
        size_bits=64, seqno=SequenceNumber(i), channel=ChannelId(1),
    )
    return messages.encode_packet_binary("deliver", packet)


def _scripted_server(listener, seen):
    """Play one client session: deliveries before ``registered`` and
    between ``sync_rep``s, a ``ping`` during the handshake, and a stale
    ``sync_rep`` ahead of each round's answer."""
    conn, _ = listener.accept()
    with conn:
        reader = framing.FrameReader(conn)

        def send(payload):
            framing.send_frame(conn, payload)

        def expect(op):
            while True:
                msg = messages.decode_message(reader.recv_frame())
                seen.append(msg)
                if msg["op"] == op:
                    return msg

        expect("register")
        send(_deliver(0))
        send(_deliver(1))
        send(messages.encode_message(messages.make_ping(42.0)))
        expect("pong")  # answered while the handshake waits
        send(_deliver(2))
        send(messages.encode_message({"op": "registered", "node": 7}))
        for rnd in range(2):
            t_c1 = expect("sync_req")["t_c1"]
            send(_deliver(3 + 2 * rnd))
            send(messages.encode_message(
                {"op": "sync_rep", "t_s3": 1000.0, "echo": t_c1 - 1.0}
            ))
            send(_deliver(4 + 2 * rnd))
            send(messages.encode_message(
                {"op": "sync_rep", "t_s3": 100.0, "echo": t_c1}
            ))
        expect("sync_report")
        send(_deliver(7))
        send(_deliver(8))
        expect("bye")


def test_scripted_server_frames_keep_wire_order():
    seen = []
    with socket.create_server(("127.0.0.1", 0)) as listener:
        script = threading.Thread(
            target=_scripted_server, args=(listener, seen), daemon=True
        )
        script.start()
        client = PoEmClient(listener.getsockname(), Vec2(0, 0), RADIOS,
                            sync_rounds=2)
        try:
            assert client.connect() == NodeId(7)
            assert wait_for(lambda: len(client.received) == 9)
        finally:
            client.close()
        script.join(timeout=5.0)
    assert not script.is_alive()
    assert [p.payload for p in client.received] == [
        b"d%d" % i for i in range(9)
    ]
    pong = next(m for m in seen if m["op"] == "pong")
    assert pong["t"] == 42.0
    # The stale replies (t_s3 = 1000, half a second of "delay") were
    # skipped: both samples answer their own round.
    report = next(m for m in seen if m["op"] == "sync_report")
    assert len(report["samples"]) == 2
    for sample in report["samples"]:
        assert sample["t_server"] < 101.0
        assert 0.0 <= sample["delay"] < 0.25


def test_non_finite_scene_move_drops_only_that_client(server):
    """A ``scene_op move`` to a NaN position moves nothing and closes
    only the console's own connection."""
    with PoEmClient(server.address, Vec2(0, 0), RADIOS, sync_rounds=1) as a, \
         PoEmClient(server.address, Vec2(40, 0), RADIOS, sync_rounds=1) as b:
        console = PoEmClient(server.address, Vec2(0, 90), RADIOS,
                             sync_rounds=1)
        console.connect()
        try:
            console.scene_op(scene="move", node=int(b.node_id),
                             x=float("nan"), y=0.0)
            assert wait_for(lambda: any(
                "finite" in f["error"]
                for f in server.health()["recent_failures"]
            ))
        finally:
            console.close()
        assert server.scene.position(b.node_id) == Vec2(40, 0)
        a.transmit(b.node_id, b"still here", channel=ChannelId(1))
        assert wait_for(lambda: len(b.received) == 1)
