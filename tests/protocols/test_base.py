"""Tests for repro.protocols.base — hosts, timers, protocol lifecycle."""

import threading
import time

import pytest

from repro.core.client import PoEmClient
from repro.core.clock import VirtualClock
from repro.core.geometry import Vec2
from repro.core.ids import NodeId
from repro.core.server import InProcessEmulator
from repro.core.tcpserver import PoEmServer
from repro.errors import ClockError, ProtocolError
from repro.models.radio import RadioConfig
from repro.protocols.base import RoutingProtocol, VirtualTimerService


class Recorderoto(RoutingProtocol):
    """Minimal protocol that records its lifecycle calls."""

    def __init__(self):
        super().__init__()
        self.events = []

    def on_start(self):
        self.events.append("start")

    def on_stop(self):
        self.events.append("stop")

    def on_packet(self, packet):
        self.events.append(("packet", packet.payload))

    def send_data(self, destination, payload, size_bits=None):
        self.events.append(("send", destination))
        return True

    def route_summary(self):
        return []


class TestVirtualTimerService:
    def test_fires_at_time(self):
        clock = VirtualClock()
        timers = VirtualTimerService(clock)
        fired = []
        timers.call_after(1.5, lambda: fired.append(clock.now()))
        clock.run()
        assert fired == [1.5]

    def test_cancel(self):
        clock = VirtualClock()
        timers = VirtualTimerService(clock)
        fired = []
        handle = timers.call_after(1.0, lambda: fired.append(1))
        timers.cancel(handle)
        clock.run()
        assert fired == []

    def test_cancel_all(self):
        clock = VirtualClock()
        timers = VirtualTimerService(clock)
        fired = []
        for i in range(5):
            timers.call_after(float(i + 1), lambda: fired.append(1))
        timers.cancel_all()
        clock.run()
        assert fired == []

    def test_handle_cleanup_after_fire(self):
        clock = VirtualClock()
        timers = VirtualTimerService(clock)
        handle = timers.call_after(0.1, lambda: None)
        clock.run()
        timers.cancel(handle)  # no-op, no error
        assert timers._handles == set()


@pytest.fixture
def client_timers():
    """The real-time stack's timers: a connected client's ``timers()``."""
    with PoEmServer(seed=0) as srv, \
         PoEmClient(srv.address, Vec2(0, 0), RadioConfig.single(1, 100),
                    sync_rounds=1) as client:
        yield client.timers()


class TestClientTimers:
    def test_fires(self, client_timers):
        event = threading.Event()
        client_timers.call_after(0.02, event.set)
        assert event.wait(2.0)

    def test_cancel(self, client_timers):
        fired = []
        handle = client_timers.call_after(0.2, lambda: fired.append(1))
        client_timers.cancel(handle)
        time.sleep(0.3)
        assert fired == []

    def test_cancel_all(self, client_timers):
        fired = []
        for _ in range(3):
            client_timers.call_after(0.2, lambda: fired.append(1))
        client_timers.cancel_all()
        time.sleep(0.3)
        assert fired == []

    def test_negative_delay_fires_now_and_nan_is_refused(self, client_timers):
        event = threading.Event()
        client_timers.call_after(-1.0, event.set)
        assert event.wait(2.0)
        with pytest.raises(ClockError):
            client_timers.call_after(float("nan"), event.set)


class TestProtocolLifecycle:
    def test_start_binds_host(self):
        emu = InProcessEmulator()
        proto = Recorderoto()
        host = emu.add_node(Vec2(0, 0), RadioConfig.single(1, 100),
                            protocol=proto)
        assert proto.host is host
        assert proto.events == ["start"]

    def test_double_start_rejected(self):
        emu = InProcessEmulator()
        proto = Recorderoto()
        emu.add_node(Vec2(0, 0), RadioConfig.single(1, 100), protocol=proto)
        with pytest.raises(ProtocolError):
            proto.start(emu.hosts()[0])

    def test_stop_unbinds_and_cancels(self):
        emu = InProcessEmulator()
        proto = Recorderoto()
        host = emu.add_node(Vec2(0, 0), RadioConfig.single(1, 100),
                            protocol=proto)
        host.timers().call_after(1.0, lambda: proto.events.append("timer"))
        proto.stop()
        emu.run_until(2.0)
        assert proto.host is None
        assert "timer" not in proto.events
        assert proto.events[-1] == "stop"

    def test_stop_idempotent(self):
        proto = Recorderoto()
        proto.stop()  # never started: no error
        assert proto.events == []

    def test_packets_dispatched(self):
        emu = InProcessEmulator(seed=0)
        proto = Recorderoto()
        a = emu.add_node(Vec2(0, 0), RadioConfig.single(1, 100))
        emu.add_node(Vec2(50, 0), RadioConfig.single(1, 100), protocol=proto)
        a.transmit(NodeId(2), b"to-proto", channel=1)
        emu.run_until(1.0)
        assert ("packet", b"to-proto") in proto.events

    def test_broadcast_helper(self):
        emu = InProcessEmulator(seed=0)
        a = emu.add_node(Vec2(0, 0), RadioConfig.single(1, 100))
        b = emu.add_node(Vec2(50, 0), RadioConfig.single(1, 100))
        packet = a.broadcast(b"to-all", channel=1)
        assert packet.is_broadcast
        emu.run_until(1.0)
        assert len(b.received) == 1
