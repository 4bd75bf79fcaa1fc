"""Tests for repro.core.recording — both recorder backends."""

import threading

import pytest

from repro.core.ids import NodeId
from repro.core.packet import PacketRecord
from repro.core.recording import MemoryRecorder, SqliteRecorder
from repro.core.scene import Scene, SceneEvent
from repro.core.geometry import Vec2
from repro.models.radio import RadioConfig


def record(i, *, t_origin=0.0, drop=None):
    return PacketRecord(
        record_id=i, seqno=i, source=1, destination=2, sender=1, receiver=2,
        channel=1, kind="data", size_bits=100, t_origin=t_origin,
        t_receipt=t_origin, t_forward=t_origin + 0.1,
        t_delivered=None if drop else t_origin + 0.1, drop_reason=drop,
    )


@pytest.fixture(params=["memory", "sqlite-mem", "sqlite-file"])
def recorder(request, tmp_path):
    if request.param == "memory":
        r = MemoryRecorder()
    elif request.param == "sqlite-mem":
        r = SqliteRecorder(":memory:")
    else:
        r = SqliteRecorder(str(tmp_path / "rec.sqlite"))
    yield r
    r.close()


class TestBothBackends:
    def test_roundtrip_packet(self, recorder):
        rec = record(1, t_origin=2.5)
        recorder.record_packet(rec)
        (got,) = recorder.packets()
        assert got == rec

    def test_roundtrip_drop(self, recorder):
        recorder.record_packet(record(1, drop="loss-model"))
        (got,) = recorder.packets()
        assert got.dropped and got.drop_reason == "loss-model"
        assert got.t_delivered is None

    def test_roundtrip_scene_event(self, recorder):
        event = SceneEvent(1.5, "node-moved", NodeId(3), {"x": 1.0, "y": 2.0})
        recorder.record_scene(event)
        (got,) = recorder.scene_events()
        assert got.time == 1.5 and got.kind == "node-moved"
        assert got.node == 3 and got.details == {"x": 1.0, "y": 2.0}

    def test_order_preserved(self, recorder):
        for i in range(5):
            recorder.record_packet(record(i + 1, t_origin=float(5 - i)))
        assert [p.record_id for p in recorder.packets()] == [1, 2, 3, 4, 5]

    def test_record_ids_unique(self, recorder):
        ids = [recorder.next_record_id() for _ in range(100)]
        assert len(set(ids)) == 100

    def test_delivered_vs_dropped(self, recorder):
        recorder.record_packet(record(1))
        recorder.record_packet(record(2, drop="not-neighbor"))
        assert len(recorder.dropped_packets()) == 1

    def test_attach_to_scene(self, recorder):
        scene = Scene()
        recorder.attach_to_scene(scene)
        scene.add_node(NodeId(1), Vec2(0, 0), RadioConfig.single(1, 10))
        scene.move_node(NodeId(1), Vec2(1, 1))
        kinds = [e.kind for e in recorder.scene_events()]
        assert kinds == ["node-added", "node-moved"]

    def test_thread_safety(self, recorder):
        def writer(base):
            for i in range(50):
                recorder.record_packet(record(recorder.next_record_id(),
                                              t_origin=float(base + i)))

        threads = [threading.Thread(target=writer, args=(k * 100,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(recorder.packets()) == 200


class TestSqliteSpecific:
    def test_persistence_across_connections(self, tmp_path):
        path = str(tmp_path / "persist.sqlite")
        r1 = SqliteRecorder(path)
        r1.record_packet(record(1))
        r1.record_scene(SceneEvent(0.0, "node-added", NodeId(1),
                                   {"x": 0, "y": 0, "radios": []}))
        r1.close()
        r2 = SqliteRecorder(path)
        assert len(r2.packets()) == 1
        assert len(r2.scene_events()) == 1
        # Fresh ids continue after the persisted maximum.
        assert r2.next_record_id() == 2
        r2.close()

    def test_bad_path_raises(self):
        from repro.errors import RecordingError

        with pytest.raises(RecordingError):
            SqliteRecorder("/nonexistent-dir-xyz/db.sqlite")


class TestBatchedHotPath:
    """record_many / reserve_record_ids — the engine's batched interface."""

    def test_record_many_matches_singles(self, recorder):
        start = recorder.reserve_record_ids(3)
        recorder.record_many([record(start + i) for i in range(3)])
        assert [p.record_id for p in recorder.packets()] == [
            start, start + 1, start + 2
        ]

    def test_reserve_is_consecutive_and_disjoint(self, recorder):
        a = recorder.reserve_record_ids(5)
        b = recorder.reserve_record_ids(2)
        c = recorder.next_record_id()
        assert b == a + 5
        assert c == b + 2

    def test_record_many_empty(self, recorder):
        recorder.record_many([])
        assert recorder.packets() == []

    def test_concurrent_reserve_disjoint(self, recorder):
        """Reserved ranges never overlap across threads."""
        starts = []
        lock = threading.Lock()

        def worker():
            for _ in range(50):
                s = recorder.reserve_record_ids(4)
                with lock:
                    starts.append(s)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ranges = sorted(starts)
        for prev, nxt in zip(ranges, ranges[1:]):
            assert nxt >= prev + 4


class TestMemorySegments:
    def test_segment_rollover_preserves_order(self):
        r = MemoryRecorder()
        n = MemoryRecorder.SEGMENT_SIZE + 10
        r.record_many([record(i + 1) for i in range(n)])
        assert len(r) == n
        assert [p.record_id for p in r.packets()] == list(range(1, n + 1))

    def test_ring_capacity_bounds_memory(self):
        """With a capacity, the segment chain becomes a ring: old full
        segments are discarded and counted in ``evicted``."""
        r = MemoryRecorder(capacity=MemoryRecorder.SEGMENT_SIZE)
        n = MemoryRecorder.SEGMENT_SIZE * 3
        for i in range(n):
            r.record_packet(record(i + 1))
        assert len(r) <= MemoryRecorder.SEGMENT_SIZE * 2
        assert r.evicted == n - len(r)
        # The survivors are the *newest* records, still in order.
        ids = [p.record_id for p in r.packets()]
        assert ids == list(range(n - len(r) + 1, n + 1))

    def test_unbounded_by_default(self):
        r = MemoryRecorder()
        for i in range(10):
            r.record_packet(record(i + 1))
        assert r.evicted == 0
        assert len(r) == 10

    def test_invalid_capacity(self):
        from repro.errors import RecordingError
        with pytest.raises(RecordingError):
            MemoryRecorder(capacity=0)


# ---------------------------------------------------------------------------
# Trace spans + sync samples (forensics plane inputs) — PR 4
# ---------------------------------------------------------------------------

from repro.core.clock import SyncSample
from repro.obs.tracing import TraceSpan


def span(trace_id=7, receiver=4):
    return TraceSpan(
        trace_id=trace_id, source=1, seqno=3, channel=2, sender=1,
        receiver=receiver, t_start=12.5, outcome="delivered",
        stages=(("receive", 1.5e-5), ("send", 2.5e-5)),
        t_forward=0.42, lag=0.0015,
    )


def sync(node=3, offset=0.01, t_server=1.0, cause="register"):
    return SyncSample(
        node=node, label="vmn", offset=offset, delay=0.0002,
        t_server=t_server, t_client=t_server - offset, cause=cause,
        residual=0.0,
    )


class TestSpanRoundTrip:
    """The lineage query consumes recorded spans verbatim."""

    def test_span_roundtrip(self, recorder):
        recorder.record_span(span())
        (got,) = recorder.spans()
        assert got == span()
        assert got.stages == (("receive", 1.5e-5), ("send", 2.5e-5))

    def test_span_order_and_none_fields(self, recorder):
        dropped = TraceSpan(
            trace_id=1, source=2, seqno=9, channel=1, sender=2,
            receiver=None, t_start=1.0, outcome="not-neighbor",
            stages=(("receive", 1e-6),), t_forward=None, lag=None,
        )
        recorder.record_span(dropped)
        recorder.record_span(span(trace_id=2))
        got = recorder.spans()
        assert [s.trace_id for s in got] == [1, 2]
        assert got[0].receiver is None
        assert got[0].t_forward is None and got[0].lag is None


class TestSyncSampleRoundTrip:
    def test_sync_roundtrip(self, recorder):
        recorder.record_sync(sync())
        (got,) = recorder.sync_samples()
        assert got == sync()

    def test_sync_order_and_causes(self, recorder):
        recorder.record_sync(sync(node=1, t_server=0.0, cause="register"))
        recorder.record_sync(sync(node=1, t_server=1.0, cause="reconnect"))
        recorder.record_sync(sync(node=2, t_server=0.5, cause="resync"))
        got = recorder.sync_samples()
        assert [s.cause for s in got] == ["register", "reconnect", "resync"]
        assert [s.node for s in got] == [1, 1, 2]

    def test_sync_residual_persists(self, recorder):
        s = SyncSample(node=9, label="", offset=-0.05, delay=0.0,
                       t_server=2.0, t_client=2.05, cause="register",
                       residual=-0.05)
        recorder.record_sync(s)
        assert recorder.sync_samples()[0].residual == -0.05

