"""Scene replication and record merge of the sharded cluster, checked
in-process: a :class:`_WorkerState` fed exactly the frames
``ShardedEmulator._sync_scene`` emits must stay a faithful replica, and
the cross-worker merge must keep its order."""

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ShardedEmulator
from repro.cluster.ipc import row_event_time
from repro.cluster.sharded import _merge_rows
from repro.cluster.snapshot import snapshot_to_dict
from repro.cluster.worker import (
    ClusterWorkerError,
    WorkerConfig,
    _WorkerState,
)
from repro.core.geometry import Vec2
from repro.core.ids import BROADCAST_NODE, ChannelId, NodeId
from repro.core.neighbor import ChannelIndexedNeighborTables
from repro.core.packet import PacketStamper
from repro.models.link import (
    DEFAULT_LINK,
    DelayModel,
    LinkModel,
    PacketLossModel,
)
from repro.models.mobility import ConstantVelocity
from repro.models.radio import Radio, RadioConfig
from repro.net.messages import decode_message, encode_packet_binary

TWO_RADIOS = RadioConfig.of(
    [
        Radio(ChannelId(1), 60.0, DEFAULT_LINK),
        Radio(ChannelId(2), 90.0, DEFAULT_LINK),
    ]
)
SLOW_LINK = LinkModel(
    loss=DEFAULT_LINK.loss,
    bandwidth=DEFAULT_LINK.bandwidth,
    delay=DelayModel(base=0.02, per_unit=0.0),
)


class Loopback:
    """Stands in for the one worker pipe: every scene frame the parent
    ships is applied to an in-process worker state the way
    ``worker_main`` dispatches it."""

    def __init__(self) -> None:
        self.state = _WorkerState(WorkerConfig(worker_index=0, n_workers=1))
        self.ops: list[str] = []

    def send_bytes(self, data: bytes) -> None:
        msg = decode_message(data)
        self.ops.append(msg["op"])
        if msg["op"] == "scene_snapshot":
            self.state.apply_snapshot(int(msg["version"]), msg["scene"])
        elif msg["op"] == "scene_moves":
            self.state.apply_moves(
                int(msg["version"]), float(msg["t"]), msg["moves"]
            )
        else:
            raise AssertionError(f"not a scene frame: {msg['op']}")


def looped_cluster(n_nodes: int = 6):
    emu = ShardedEmulator(n_workers=1, seed=5)
    pipe = Loopback()
    emu._procs, emu._conns = [pipe], [pipe]  # "started", with no process
    for i in range(n_nodes):
        emu.add_node(Vec2(25.0 * i, 10.0 * (i % 3)), TWO_RADIOS)
    return emu, pipe


def assert_coherent(emu, pipe) -> None:
    replica = pipe.state.engine.scene
    # Modulo version: a moves frame is one bump on the replica.  Time is
    # compared one-sidedly: a tick that moved nobody ships nothing.
    assert replica.export_snapshot().nodes == emu.scene.export_snapshot().nodes
    assert replica.time <= emu.scene.time
    fresh = ChannelIndexedNeighborTables(replica)
    live = pipe.state.engine.neighbors
    assert live.channels() == fresh.channels()
    for channel in fresh.channels():
        assert live.table_for_channel(channel) == fresh.table_for_channel(
            channel
        )


_COORD = st.floats(min_value=-50.0, max_value=200.0)
_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["move", "move", "move", "tick", "retune", "range", "link",
             "quarantine", "restore", "add", "remove", "sync", "sync"]
        ),
        st.integers(min_value=0, max_value=7),
        _COORD,
        _COORD,
    ),
    max_size=30,
)


def apply_op(emu, op, k, x, y) -> None:
    scene = emu.scene
    nodes = scene.node_ids()
    if op == "add":
        emu.add_node(Vec2(x, y), TWO_RADIOS)
    elif op == "tick":
        # What flush() does to the parent: time on, mobile nodes move.
        emu._time += 0.05 + (k % 3) * 0.05
        scene.advance_time(emu._time)
    elif not nodes:
        return
    else:
        node = nodes[k % len(nodes)]
        if op == "move":
            scene.move_node(node, Vec2(x, y))
        elif op == "retune":
            scene.set_radio_channel(node, k % 2, ChannelId(1 + k % 3))
        elif op == "range":
            scene.set_radio_range(node, k % 2, abs(x) + 1.0)
        elif op == "link":
            scene.set_link_model(node, k % 2, SLOW_LINK)
        elif op == "quarantine":
            scene.quarantine_node(node)
        elif op == "restore":
            scene.restore_node(node)
        elif op == "remove":
            emu.remove_node(node)


class TestReplicaCoherence:
    @settings(deadline=None, max_examples=60)
    @given(_OPS)
    def test_replica_tracks_the_parent_through_any_interleaving(self, ops):
        emu, pipe = looped_cluster()
        # Two mobile nodes, so a tick is a multi-move frame.
        emu.scene.set_mobility(NodeId(1), ConstantVelocity(40.0, 10.0))
        emu.scene.set_mobility(NodeId(2), ConstantVelocity(30.0, 200.0))
        emu._sync_scene()
        assert pipe.ops == ["scene_snapshot"]
        assert_coherent(emu, pipe)
        for op, k, x, y in ops:
            if op == "sync":
                emu._sync_scene()
                assert_coherent(emu, pipe)
            else:
                apply_op(emu, op, k, x, y)
        emu._sync_scene()
        assert_coherent(emu, pipe)

    def test_what_is_pending_selects_the_frame(self):
        emu, pipe = looped_cluster()
        emu._sync_scene()
        emu._sync_scene()  # nothing pending: nothing shipped
        assert pipe.ops == ["scene_snapshot"]

        emu.scene.move_node(NodeId(1), Vec2(1.0, 2.0))
        emu.scene.move_node(NodeId(2), Vec2(3.0, 4.0))
        emu.scene.move_node(NodeId(1), Vec2(5.0, 6.0))  # supersedes the first
        emu._sync_scene()
        assert pipe.ops[1:] == ["scene_moves"]
        assert_coherent(emu, pipe)

        emu.scene.move_node(NodeId(3), Vec2(7.0, 8.0))
        emu.scene.quarantine_node(NodeId(3))  # no version bump, still shipped
        emu.scene.move_node(NodeId(4), Vec2(9.0, 9.0))
        emu._sync_scene()
        assert pipe.ops[2:] == ["scene_snapshot"]  # moves folded into it
        assert emu._pending_moves == {} and emu._snapshot_due == 0
        assert_coherent(emu, pipe)

    def test_moves_before_any_snapshot_are_a_worker_error(self):
        state = _WorkerState(WorkerConfig(worker_index=0, n_workers=1))
        with pytest.raises(ClusterWorkerError):
            state.apply_moves(3, 0.0, [[1, 0.0, 0.0]])

    def test_concurrent_mutations_are_never_lost(self):
        """Movers and a structural mutator race the syncing thread; once
        they stop, one more sync must leave the replica exact — a move
        dropped or re-applied out of order by the hand-off would not."""
        emu, pipe = looped_cluster(n_nodes=8)
        emu._sync_scene()
        stop = threading.Event()

        def mover(offset: int) -> None:
            i = 0
            while not stop.is_set():
                node = NodeId(1 + (i + offset) % 8)
                emu.scene.move_node(node, Vec2(float(i % 97), float(offset)))
                i += 1

        def mutator() -> None:
            i = 0
            while not stop.is_set():
                emu.scene.set_radio_range(NodeId(1 + i % 8), 0, 40.0 + i % 50)
                stop.wait(0.002)
                i += 1

        threads = [
            threading.Thread(target=mover, args=(0,)),
            threading.Thread(target=mover, args=(3,)),
            threading.Thread(target=mutator),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for _ in range(300):
                emu._sync_scene()
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        emu._sync_scene()
        assert_coherent(emu, pipe)


class TestReplaceScene:
    def test_a_newer_snapshot_keeps_the_engine_a_stale_one_is_ignored(self):
        """``replace_scene`` swaps the replica under a running engine
        (moves before any snapshot are
        ``test_moves_before_any_snapshot_are_a_worker_error``)."""
        emu, pipe = looped_cluster(n_nodes=4)
        lossy = LinkModel(loss=PacketLossModel(p0=0.2, p1=0.6, d0=0.5))
        for node in emu.scene.node_ids():
            emu.scene.set_link_model(node, 0, lossy)  # loss draws use the RNG
        emu._sync_scene()
        state, stamper = pipe.state, PacketStamper(NodeId(1))
        engine = state.engine
        fresh_rng = engine._rng.bit_generator.state

        def send(t: float) -> None:
            packet = stamper.make_packet(
                BROADCAST_NODE, b"x", channel=ChannelId(1), t_origin=t
            )
            frame = encode_packet_binary("packet", packet)
            state.ingest_batch([(frame, 0)], time.time())

        for i in range(5):
            send(0.01 * (i + 1))
        state.flush_to(0.1)
        assert engine.forwarded > 0
        assert engine._rng.bit_generator.state != fresh_rng

        def kept():
            return (
                engine.ingested, engine.forwarded,
                engine.deadlines.as_dict(), engine._rng.bit_generator.state,
            )

        before = kept()
        # Structural, so it ships as a newer snapshot: node 1 now
        # reaches nobody on channel 1.
        emu.scene.set_radio_range(NodeId(1), 0, 1.0)
        emu._sync_scene()
        assert pipe.ops[-1] == "scene_snapshot"
        assert state.engine is engine and engine.scene is state.scene
        assert kept() == before
        assert_coherent(emu, pipe)
        send(0.2)
        state.flush_to(0.3)
        assert engine.ingested == before[0] + 1
        assert engine.forwarded == before[1]

        replica, version = state.scene, state.scene_version
        stale = snapshot_to_dict(emu.scene.export_snapshot())
        state.apply_snapshot(version - 1, stale)
        assert state.scene is replica and state.scene_version == version


class TestHandOffLock:
    def test_runtime_lock_edges_are_in_the_static_graph(self):
        """The hand-off lock is a leaf under both the Scene lock
        (``_mark_dirty``) and ``_io_lock`` (``_sync_scene``); the static
        POEM009 model must predict every edge a run exhibits."""
        from pathlib import Path

        import repro
        from repro.lint.callgraph import build_project
        from repro.lint.lockgraph import instrument_module_locks
        from repro.lint.staticlocks import (
            build_lock_model,
            check_runtime_consistency,
        )

        with instrument_module_locks() as graph:
            emu, pipe = looped_cluster()
        emu._sync_scene()
        emu.scene.move_node(NodeId(1), Vec2(4.0, 4.0))
        emu._sync_scene()
        emu.scene.set_radio_range(NodeId(2), 0, 75.0)
        emu._sync_scene()
        assert_coherent(emu, pipe)

        assert not graph.cycles()
        into_hand_off = [
            a for a, b in graph.edges() if "sharded.py" in b and a != b
        ]
        assert any("scene.py" in a for a in into_hand_off)
        assert any("sharded.py" in a for a in into_hand_off)
        project = build_project([Path(repro.__file__).parent])
        pairs = check_runtime_consistency(
            project, build_lock_model(project), sorted(graph.edges())
        )
        assert pairs == [], [fp for _, fp in pairs]


class TestRestart:
    def test_stop_start_bootstraps_from_a_snapshot(self):
        """Workers born by a restart hold no replica: they must get a
        full snapshot, and moves queued for their predecessors must not
        reach them as a delta."""
        channel = ChannelId(1)
        with ShardedEmulator(n_workers=2, seed=3) as emu:
            radios = RadioConfig.single(1, 50.0)
            a = emu.add_node(Vec2(0.0, 0.0), radios)
            b = emu.add_node(Vec2(30.0, 0.0), radios)
            a.transmit(BROADCAST_NODE, b"one", channel=channel, t=0.01)
            emu.flush(0.1)
            assert [r.receiver for r in emu.collect()] == [b.node_id]

            emu.scene.move_node(b.node_id, Vec2(40.0, 0.0))  # never synced
            emu.stop()
            assert emu._pending_moves == {} and emu._snapshot_due
            emu.scene.move_node(b.node_id, Vec2(500.0, 0.0))  # out of range
            emu.start()
            assert emu._snapshot_due == 0

            a.transmit(BROADCAST_NODE, b"two", channel=channel, t=0.2)
            emu.scene.move_node(b.node_id, Vec2(20.0, 0.0))  # a delta again
            a.transmit(BROADCAST_NODE, b"three", channel=channel, t=0.3)
            emu.flush(0.4)
            assert [r.receiver for r in emu.collect()] == [b.node_id]
            assert emu._pending_moves == {}


def _row(seqno, stamps):
    t_origin, t_receipt, t_forward, t_delivered = stamps
    return (seqno, 1, 2, 1, 2, 1, "data", 64,
            t_origin, t_receipt, t_forward, t_delivered, None)


# Few distinct times, so ties within and across streams are the norm;
# some rows have no delivery stamp and fall back through the chain.
_TIME = st.sampled_from([0.0, 0.5, 1.0, 1.5])
_STAMPS = st.tuples(_TIME, _TIME, st.none() | _TIME, st.none() | _TIME)


class TestMergeOrder:
    @given(st.sampled_from([1, 2, 4]), st.data())
    def test_stable_sort_is_the_keyed_sort(self, n, data):
        seqnos = iter(range(10_000))
        streams = [
            [_row(next(seqnos), stamps)
             for stamps in data.draw(st.lists(_STAMPS, max_size=12))]
            for _ in range(n)
        ]
        keyed = [
            (row_event_time(row), worker, position, row)
            for worker, stream in enumerate(streams)
            for position, row in enumerate(stream)
        ]
        keyed.sort(key=lambda item: item[:3])
        expected = streams[0] if n == 1 else [item[3] for item in keyed]
        assert _merge_rows(streams) == expected
