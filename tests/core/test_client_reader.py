"""The client's one event thread: the receiver thread runs the handshake,
every sync wait, every dispatch and every protocol timer, so no frame is
lost or reordered whichever thread asks for a reply, and a protocol's
callbacks never run concurrently with each other."""

import socket
import threading
import time

import pytest

from repro.core.client import PoEmClient
from repro.core.geometry import Vec2
from repro.core.ids import BROADCAST_NODE, ChannelId, NodeId, SequenceNumber
from repro.core.packet import Packet
from repro.core.tcpserver import PoEmServer
from repro.errors import TransportError
from repro.models.radio import RadioConfig
from repro.net import framing, messages
from repro.protocols.common import ProtocolTuning
from repro.protocols.hybrid import HybridProtocol

RADIOS = RadioConfig.single(1, 100.0)
FAST = ProtocolTuning(hello_interval=0.15, neighbor_timeout=0.5,
                      route_lifetime=1.5)


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


class ThreadSpy(HybridProtocol):
    """HybridProtocol(FAST), noting the thread of each ``on_packet`` and
    ``_tick``."""

    def __init__(self):
        super().__init__(FAST)
        self.threads = set()
        self.packets = 0

    def on_packet(self, packet):
        self.threads.add(threading.current_thread().name)
        self.packets += 1
        super().on_packet(packet)

    def _tick(self):
        self.threads.add(threading.current_thread().name)
        super()._tick()


def test_protocol_callbacks_run_on_the_receiver_only(server, monkeypatch):
    """Three clients beaconing every 0.15 s: after ``attach_protocol``,
    each protocol's packets and timers run on its own receiver thread,
    and no thread is started (a timer thread per ``call_after`` before)."""
    clients, spies = [], []
    try:
        for i, x in enumerate((0.0, 80.0, 160.0)):
            c = PoEmClient(server.address, Vec2(x, 0), RADIOS,
                           label=f"spy{i}", sync_rounds=1)
            c.connect()
            clients.append(c)
        started = []
        real_start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: (
            started.append(t.name), real_start(t)))
        for c in clients:
            spy = ThreadSpy()
            c.attach_protocol(spy)
            spy.threads.clear()  # the first beacon runs in attach_protocol
            spies.append(spy)
        assert wait_for(lambda: all(s.packets >= 10 for s in spies))
        time.sleep(0.5)
        assert started == []
        for i, spy in enumerate(spies):
            assert spy.threads == {f"poem-client-spy{i}"}
    finally:
        for c in clients:
            c.close()


def test_timer_from_another_thread_wakes_the_select(server):
    """The receiver waits in ``select`` with no timer armed; a timer set
    from the main thread fires on the receiver, not early and not late,
    and so does a nearer one armed behind a far one."""
    with PoEmClient(server.address, Vec2(0, 0), RADIOS, label="waker",
                    sync_rounds=1) as client:
        fired = []

        def note():
            fired.append((time.monotonic(), threading.current_thread().name))

        for far in (None, 30.0):
            fired.clear()
            time.sleep(0.05)  # the receiver is back in select
            if far is not None:
                client.timers().call_after(far, note)
            t0 = time.monotonic()
            client.timers().call_after(0.2, note)
            assert wait_for(lambda: fired, timeout=2.0)
            at, name = fired[0]
            assert 0.2 <= at - t0 < 0.7
            assert name == "poem-client-waker"


def test_sync_from_a_timer_loses_no_delivery(server):
    """A periodic ``synchronize()`` armed on ``timers()`` runs on the
    receiver between frames; the deliveries its waits meet keep wire
    order, and the receive loop does not block on a consumed socket."""
    with PoEmClient(server.address, Vec2(0, 0), RADIOS, sync_rounds=2) as a, \
         PoEmClient(server.address, Vec2(40, 0), RADIOS, sync_rounds=2) as b:
        syncs = []

        def resync():
            syncs.append(b.synchronize(rounds=2))
            if len(syncs) < 5:
                b.timers().call_after(0.01, resync)

        b.timers().call_after(0.0, resync)
        for i in range(200):
            a.transmit(b.node_id, b"%03d" % i, channel=ChannelId(1),
                       size_bits=512)
            if i % 40 == 0:
                time.sleep(0.01)
        assert wait_for(lambda: len(b.received) == 200 and len(syncs) == 5)
        assert [p.payload for p in b.received] == [
            b"%03d" % i for i in range(200)
        ]


def test_timers_fire_through_a_reconnect_backoff():
    """With the server gone the receiver sits in the reconnect backoff;
    a protocol's periodic timer keeps firing there, and what it sends
    counts as outage drops."""
    srv = PoEmServer(seed=0)
    srv.start()
    client = PoEmClient(srv.address, Vec2(0, 0), RADIOS, label="phoenix",
                        sync_rounds=1, auto_reconnect=True,
                        reconnect_base=0.05, reconnect_cap=0.2,
                        max_reconnect_attempts=100, reconnect_seed=1)
    try:
        client.connect()
        threads = set()

        def beacon():
            threads.add(threading.current_thread().name)
            client.transmit(BROADCAST_NODE, b"b", channel=ChannelId(1))
            client.timers().call_after(0.02, beacon)

        client.timers().call_after(0.0, beacon)
        srv.stop()
        assert wait_for(lambda: client.outage_drops >= 20)
        assert client.reconnects == 0  # still down: these fired in backoff
        assert threads == {"poem-client-phoenix"}
    finally:
        client.close()
        srv.stop()


def test_close_with_timers_pending_leaves_no_thread(server):
    client = PoEmClient(server.address, Vec2(0, 0), RADIOS, label="pending",
                        sync_rounds=1)
    client.connect()
    fired = []
    for delay in (0.05, 0.3, 30.0):
        client.timers().call_after(delay, lambda: fired.append(1))
    client.close()
    assert not any(t.name == "poem-client-pending"
                   for t in threading.enumerate())
    time.sleep(0.4)
    assert fired == []


def test_failed_connect_closes_the_wake_pair(monkeypatch):
    """A refused dial raises, and leaves neither the socket nor the wake
    socketpair open."""
    pairs = []
    real_pair = socket.socketpair
    monkeypatch.setattr(socket, "socketpair",
                        lambda: pairs.append(real_pair()) or pairs[-1])
    with socket.socket() as probe:  # a port nobody listens on
        probe.bind(("127.0.0.1", 0))
        address = probe.getsockname()
    client = PoEmClient(address, Vec2(0, 0), RADIOS, label="refused")
    for _ in range(2):
        with pytest.raises(OSError):
            client.connect()
        assert client._sock is None
        assert all(s.fileno() == -1 for pair in pairs for s in pair)
    assert len(pairs) == 2
