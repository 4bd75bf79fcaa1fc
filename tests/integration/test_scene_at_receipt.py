"""Every deployment forwards a packet on the scene at its receipt.

The paper's central server forwards against one never-stale topology
(§2.1); the distributed Fig 3 failure is a packet routed on positions
that are no longer true.  The virtual stacks advance the scene before
every ingest; the TCP server advances it once per readiness-loop wake
that reads frames, and once a ``mobility_tick`` when idle.
"""

import time

import pytest

from repro.core.client import PoEmClient
from repro.core.geometry import Vec2
from repro.core.ids import ChannelId, NodeId
from repro.core.packet import DropReason
from repro.core.server import InProcessEmulator
from repro.core.tcpserver import PoEmServer
from repro.models.mobility import ConstantVelocity
from repro.models.radio import RadioConfig

RADIOS = RadioConfig.single(1, 100.0)
CH = ChannelId(1)
NEAR, FAR = Vec2(50.0, 0.0), Vec2(5000.0, 0.0)
SEND_AFTER_JUMP = 0.1
# Timer latency of a timed-out select on a loaded host.
SLACK = 0.05


class Jump:
    """A trajectory parked in range that leaps out of it at ``t_jump``."""

    def __init__(self, t_jump: float) -> None:
        self.t_jump = t_jump

    def position_at(self, t: float) -> Vec2:
        return NEAR if t < self.t_jump else FAR


def wait_for(predicate, timeout=5.0, poll=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return False


def run_inproc():
    emu = InProcessEmulator(seed=0)
    try:
        a = emu.add_node(Vec2(0.0, 0.0), RADIOS, label="a")
        b = emu.add_node(NEAR, RADIOS, label="b")
        t_jump = 1.0
        emu.scene.set_trajectory(b.node_id, Jump(t_jump))
        emu.run_until(t_jump + SEND_AFTER_JUMP)
        a.transmit(b.node_id, b"x", channel=CH)
        emu.run_for(1.0)
        received = list(b.received)
    finally:
        emu.shutdown()
    return emu.recorder.packets(), received


def run_tcp():
    # A one-second tick: a scene advanced only by the tick would still
    # hold the receiver in range when the packet arrives.
    srv = PoEmServer(seed=0, mobility_tick=1.0)
    srv.start()
    clients = [
        PoEmClient(srv.address, pos, RADIOS, label=label, sync_rounds=2)
        for pos, label in ((Vec2(0.0, 0.0), "a"), (NEAR, "b"))
    ]
    try:
        for c in clients:
            c.connect()
        a, b = clients
        t_jump = srv.clock.now() + 0.2
        srv.scene.set_trajectory(b.node_id, Jump(t_jump))
        while srv.clock.now() < t_jump + SEND_AFTER_JUMP:
            time.sleep(0.005)
        a.transmit(b.node_id, b"x", channel=CH)
        assert wait_for(lambda: srv.recorder.packets())
        time.sleep(0.2)  # room for a (wrong) delivery to arrive
        received = list(b.received)
    finally:
        for c in clients:
            c.close()
        srv.stop()
    return srv.recorder.packets(), received


@pytest.mark.parametrize("run", [run_inproc, run_tcp], ids=["inproc", "tcp"])
def test_unicast_after_the_receiver_left_range_is_dropped(run):
    records, received = run()
    (record,) = [r for r in records if r.kind == "data"]
    assert record.drop_reason == DropReason.NOT_NEIGHBOR
    assert received == []


def test_idle_server_ticks_scene_time():
    """No traffic: the loop still evaluates mobility once a tick, so a
    replay of the recording moves the node smoothly."""
    tick = 0.05
    srv = PoEmServer(seed=0, mobility_tick=tick)
    srv.start()
    try:
        node = NodeId(100)
        srv.scene.add_node(node, Vec2(0.0, 0.0), RADIOS)
        srv.scene.set_mobility(node, ConstantVelocity(10.0, 0.0))
        time.sleep(1.0)
        lag = srv.clock.now() - srv.scene.time
    finally:
        srv.stop()
    moves = [
        e.time for e in srv.recorder.scene_events() if e.kind == "node-moved"
    ]
    assert len(moves) >= 10
    assert max(b - a for a, b in zip(moves, moves[1:])) <= tick + SLACK
    assert 0.0 <= lag <= tick + SLACK
