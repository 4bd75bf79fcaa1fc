"""Tests for repro.core.recording — both recorder backends."""

import threading
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def row(i, *, t_origin=0.0, drop=None):
    """``record(i)``'s row: the fields minus ``record_id``."""
    return astuple(record(i, t_origin=t_origin, drop=drop))[1:]


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
        assert recorder.record_packet(row(1, t_origin=2.5)) == 1
        (got,) = recorder.packets()
        assert got == rec

    def test_roundtrip_drop(self, recorder):
        recorder.record_packet(row(1, drop="loss-model"))
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
            recorder.record_packet(row(i + 1, t_origin=float(5 - i)))
        assert [p.record_id for p in recorder.packets()] == [1, 2, 3, 4, 5]

    def test_record_ids_unique(self, recorder):
        ids = [recorder.record_packet(row(1)) for _ in range(100)]
        assert len(set(ids)) == 100

    def test_delivered_vs_dropped(self, recorder):
        recorder.record_packet(row(1))
        recorder.record_packet(row(2, drop="not-neighbor"))
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
                recorder.record_packet(row(i, t_origin=float(base + i)))

        threads = [threading.Thread(target=writer, args=(k * 100,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(recorder.packets()) == len(recorder) == 200
        assert [p.record_id for p in recorder.packets()] == list(range(1, 201))


class TestSqliteSpecific:
    def test_persistence_across_connections(self, tmp_path):
        path = str(tmp_path / "persist.sqlite")
        r1 = SqliteRecorder(path)
        r1.record_packet(row(1))
        r1.record_scene(SceneEvent(0.0, "node-added", NodeId(1),
                                   {"x": 0, "y": 0, "radios": []}))
        r1.close()
        r2 = SqliteRecorder(path)
        assert len(r2.packets()) == 1
        assert len(r2.scene_events()) == 1
        # Fresh ids continue after the persisted maximum.
        assert r2.record_packet(row(2)) == 2
        r2.close()

    def test_bad_path_raises(self):
        from repro.errors import RecordingError

        with pytest.raises(RecordingError):
            SqliteRecorder("/nonexistent-dir-xyz/db.sqlite")

    def test_load_dataset_reads_live_and_closed_recordings_in_place(
        self, tmp_path
    ):
        from repro.core.recording import load_dataset

        path = tmp_path / "odd #name?.sqlite"
        writer = SqliteRecorder(str(path))
        writer.record_packet(row(1))
        live_files = sorted(tmp_path.iterdir())  # db + its -wal/-shm
        assert len(load_dataset(path).packets) == 1  # read through the log
        assert sorted(tmp_path.iterdir()) == live_files
        writer.close()
        assert list(tmp_path.iterdir()) == [path]
        assert len(load_dataset(str(path)).packets) == 1
        assert list(tmp_path.iterdir()) == [path]


class TestBatchedHotPath:
    """record_many — the engine's batched interface; the recorder
    assigns the ids."""

    def test_record_many_matches_singles(self, recorder):
        start = recorder.record_many([row(i + 1) for i in range(3)])
        assert start == 1
        assert recorder.packets() == [record(i + 1) for i in range(3)]

    def test_reserve_is_consecutive_and_disjoint(self, recorder):
        a = recorder.record_many([row(1)] * 5)
        b = recorder.record_many([row(2)] * 2)
        c = recorder.record_packet(row(3))
        assert b == a + 5
        assert c == b + 2

    def test_record_many_empty(self, recorder):
        recorder.record_many([])
        assert recorder.packets() == []
        assert len(recorder) == 0

    def test_concurrent_reserve_disjoint(self, recorder):
        """Batches appended from several threads get disjoint id ranges
        that hold exactly their own rows."""
        starts = []
        lock = threading.Lock()

        def worker(k):
            for _ in range(50):
                s = recorder.record_many([row(k)] * 4)
                with lock:
                    starts.append((s, k))

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        by_id = {p.record_id: p.seqno for p in recorder.packets()}
        assert len(by_id) == 800
        for s, k in starts:
            assert [by_id[s + j] for j in range(4)] == [k] * 4


class TestMemorySegments:
    def test_segment_rollover_preserves_order(self):
        r = MemoryRecorder()
        n = 4096 + 10
        assert r.record_many([row(i + 1) for i in range(n)]) == 1
        assert len(r) == n
        assert [p.record_id for p in r.packets()] == list(range(1, n + 1))

    def test_row_of_wrong_arity_is_refused(self):
        """A short row is refused with its whole batch and leaves the
        log intact."""
        from repro.errors import RecordingError
        r = MemoryRecorder()
        r.record_many([row(1), row(2)])
        with pytest.raises(RecordingError):
            r.record_many([row(3), row(4)[:-1]])
        assert r.record_packet(row(5)) == 3
        assert [p.seqno for p in r.packets()] == [1, 2, 5]


class TestRecorderParity:
    """One row sequence, every backend: identical records, ids included.
    The recorder owns the ids: ``record_many`` returns the first, ids
    count on across batches and across reopening a SQLite file."""

    @staticmethod
    def batches():
        """Singles and batches of varied rows: drops, a missing
        receiver, stamps left unset."""
        rows = []
        for i in range(1, 9001):
            r = list(row(i, t_origin=i * 1e-3, drop=(
                "loss-model" if i % 7 == 0 else None
            )))
            if i % 11 == 0:
                r[4] = None  # dropped before a receiver was chosen
                r[10] = None
            rows.append(tuple(r))
        out, i = [], 0
        for size in (1, 5, 1, 300, 1, 1, 5000, 17, 3674):
            out.append(rows[i : i + size])
            i += size
        assert i == len(rows)
        return out

    @staticmethod
    def feed(recorder, batches):
        firsts = []
        for batch in batches:
            if len(batch) == 1:
                firsts.append(recorder.record_packet(batch[0]))
            else:
                firsts.append(recorder.record_many(batch))
        return firsts

    def test_backends_return_identical_records(self, tmp_path):
        batches = self.batches()
        n = sum(len(b) for b in batches)
        expected_firsts = []
        next_id = 1
        for b in batches:
            expected_firsts.append(next_id)
            next_id += len(b)
        memory = MemoryRecorder()
        sqlite = SqliteRecorder(str(tmp_path / "parity.sqlite"))
        try:
            for backend in (memory, sqlite):
                assert self.feed(backend, batches) == expected_firsts
            reference = sqlite.packets()
            assert [p.record_id for p in reference] == list(range(1, n + 1))
            assert memory.packets() == reference
            assert len(memory) == len(sqlite) == n
            # Ids continue after more appends and after reopening the file.
            assert memory.record_many(batches[0]) == n + 1
        finally:
            sqlite.close()
        reopened = SqliteRecorder(str(tmp_path / "parity.sqlite"))
        try:
            assert len(reopened) == n
            assert reopened.record_many(batches[0]) == n + 1
            assert reopened.packets() == memory.packets()
        finally:
            reopened.close()


def grouped_row(seqno, receiver, drop):
    """A row whose receiver field may be None, a node or a tuple."""
    t = seqno * 1e-3
    return (
        seqno, 1, 2, 3, receiver, 1, "data", 100, t, t, t + 0.1,
        None if drop else t + 0.2, drop,
    )


def expanded(rows):
    """The reference expansion: one row per receiver of a tuple."""
    out = []
    for r in rows:
        if isinstance(r[4], tuple):
            out += [r[:4] + (node,) + r[5:] for node in r[4]]
        else:
            out.append(r)
    return out


_receivers = st.one_of(
    st.none(),
    st.integers(0, 40),
    st.lists(st.integers(0, 40), min_size=1, max_size=4).map(tuple),
    # Ids beyond 4 bytes: MemoryRecorder keeps such a group as its tuple.
    st.lists(st.sampled_from([-1, 7, 2**31, 2**62]), min_size=2,
             max_size=4).map(tuple),
)
_batches = st.lists(
    st.lists(
        st.builds(
            grouped_row, st.integers(1, 500), _receivers,
            st.sampled_from([None, "loss-model"]),
        ),
        max_size=5,
    ),
    max_size=6,
)


class TestGroupedRows:
    """A row with a tuple receiver is one record per receiver, in order:
    every backend agrees with a plain list of the expanded rows on the
    records, their ids, the count and the rows."""

    @settings(max_examples=60, deadline=None)
    @given(batches=_batches)
    def test_backends_match_the_expanded_list(self, batches):
        from repro.errors import RecordingError

        memory, sqlite = MemoryRecorder(), SqliteRecorder(":memory:")
        reference: list = []
        try:
            for batch in batches:
                first = len(reference) + 1
                assert memory.record_many(batch) == first
                assert sqlite.record_many(batch) == first
                reference += expanded(batch)
            want = [PacketRecord(i, *r) for i, r in enumerate(reference, 1)]
            assert memory.packets() == want
            assert sqlite.packets() == want
            assert memory.rows() == reference
            assert len(memory) == len(sqlite) == len(reference)
            bad = (batches[0] if batches else []) + [
                grouped_row(1, (1, 2), None)[:12]
            ]
            for backend in (memory, sqlite):
                with pytest.raises(RecordingError):
                    backend.record_many(bad)
                assert len(backend) == len(reference)
                assert backend.record_packet(grouped_row(9, 5, None)) == (
                    len(reference) + 1
                )
        finally:
            sqlite.close()


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

