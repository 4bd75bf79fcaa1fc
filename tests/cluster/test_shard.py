"""Tests for the sharded cluster's deterministic plumbing: the shard
map, the scene-snapshot codec, and the pipe framing (no processes)."""

from dataclasses import astuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import ShardMap
from repro.cluster.ipc import (
    decode_packet_batch,
    decode_record_frame,
    encode_packet_batch,
    encode_record_frame,
    is_packet_batch,
    record_from_row,
)
from repro.cluster.snapshot import (
    build_scene,
    snapshot_from_dict,
    snapshot_to_dict,
)
from repro.core.geometry import Vec2
from repro.core.ids import ChannelId, NodeId
from repro.core.packet import PacketRecord
from repro.core.scene import Scene
from repro.errors import ClusterError
from repro.models.link import (
    BandwidthModel,
    DelayModel,
    LinkModel,
    PacketLossModel,
)
from repro.models.radio import Radio, RadioConfig


class TestShardMap:
    def test_validation(self):
        with pytest.raises(ClusterError):
            ShardMap(0)

    def test_round_robin_and_balance(self):
        shards = ShardMap(3)
        placed = [shards.place(NodeId(i)) for i in range(1, 8)]
        assert placed == [0, 1, 2, 0, 1, 2, 0]
        assert shards.loads() == [3, 2, 2]
        # k placements over n shards never differ in load by more than 1.
        assert max(shards.loads()) - min(shards.loads()) <= 1

    def test_placement_is_idempotent_and_stable(self):
        shards = ShardMap(4)
        first = shards.place(NodeId(9))
        assert shards.place(NodeId(9)) == first
        assert shards.shard_of(NodeId(9)) == first
        assert len(shards) == 1

    def test_same_script_same_placement(self):
        """The whole point: two runs of the same registration script land
        every node identically — no hash() salting in sight."""
        a, b = ShardMap(5), ShardMap(5)
        ids = [NodeId(i) for i in (12, 3, 44, 7, 21, 90, 5)]
        assert [a.place(n) for n in ids] == [b.place(n) for n in ids]
        assert a.as_dict() == b.as_dict()

    def test_shard_of_auto_places_unseen(self):
        shards = ShardMap(2)
        assert shards.peek(NodeId(7)) is None
        assert shards.shard_of(NodeId(7)) == 0
        assert shards.peek(NodeId(7)) == 0

    def test_release_frees_the_slot(self):
        shards = ShardMap(2)
        shards.place(NodeId(1))
        shards.place(NodeId(2))
        shards.release(NodeId(1))
        assert NodeId(1) not in shards
        assert shards.loads() == [0, 1]
        # Next placement backfills the freed (now least-loaded) shard.
        assert shards.place(NodeId(3)) == 0
        shards.release(NodeId(99))  # unknown: idempotent no-op


def _scene_with_two_nodes() -> Scene:
    scene = Scene(seed=3)
    link = LinkModel(
        loss=PacketLossModel(p0=0.1, p1=0.5, d0=0.4, radio_range=120.0),
        bandwidth=BandwidthModel(peak=2e6, edge=4e5, radio_range=120.0),
        delay=DelayModel(base=0.002, per_unit=1e-6),
    )
    radios = RadioConfig.of(
        [
            Radio(channel=ChannelId(1), range=120.0, link=link),
            Radio(channel=ChannelId(2), range=60.0),
        ]
    )
    scene.add_node(NodeId(1), Vec2(0.0, 0.0), radios, label="alpha")
    scene.add_node(
        NodeId(2), Vec2(50.0, 10.0), RadioConfig.single(1, 120.0), label="beta"
    )
    scene.quarantine_node(NodeId(2))
    return scene


class TestSceneSnapshotCodec:
    def test_round_trip_preserves_topology(self):
        scene = _scene_with_two_nodes()
        snap = scene.export_snapshot()
        raw = snapshot_to_dict(snap)
        rebuilt = build_scene(raw)
        assert set(rebuilt.node_ids()) == set(scene.node_ids())
        assert rebuilt.label(NodeId(1)) == "alpha"
        assert rebuilt.position(NodeId(1)) == scene.position(NodeId(1))
        assert rebuilt.channels_of(NodeId(1)) == scene.channels_of(NodeId(1))
        assert rebuilt.is_quarantined(NodeId(2))
        # The link models survive bit-for-bit (frozen dataclass equality).
        assert (
            rebuilt.radios(NodeId(1))[0].link
            == scene.radios(NodeId(1))[0].link
        )

    def test_round_trip_through_dict_is_lossless(self):
        snap = _scene_with_two_nodes().export_snapshot()
        assert snapshot_from_dict(snapshot_to_dict(snap)) == snap

    def test_malformed_snapshot_raises(self):
        with pytest.raises(ClusterError):
            snapshot_from_dict({"version": 1})  # no time/nodes

    def test_snapshot_carries_scene_time(self):
        scene = _scene_with_two_nodes()
        scene.advance_time(3.5)
        assert scene.export_snapshot().time == pytest.approx(3.5)


class TestPacketBatchFraming:
    def test_round_trip(self):
        entries = [
            (b"\xb1" + bytes([i]) * i, i * 7) for i in range(5)
        ]
        data = encode_packet_batch(entries, 123.25)
        assert is_packet_batch(data)
        decoded, t_sent = decode_packet_batch(data)
        assert decoded == entries
        assert t_sent == 123.25

    def test_untraced_frames_carry_zero_id(self):
        data = encode_packet_batch([(b"\xb1abc", 0)], 1.0)
        decoded, _ = decode_packet_batch(data)
        assert decoded == [(b"\xb1abc", 0)]

    def test_large_trace_ids_survive(self):
        big = 2**40 + 17  # trace ids are u64 on the wire
        decoded, _ = decode_packet_batch(
            encode_packet_batch([(b"\xb1x", big)], 0.0)
        )
        assert decoded == [(b"\xb1x", big)]

    def test_empty_batch(self):
        decoded, t_sent = decode_packet_batch(encode_packet_batch([], 2.5))
        assert decoded == []
        assert t_sent == 2.5

    def test_truncation_raises(self):
        data = encode_packet_batch([(b"hello", 1), (b"world", 0)], 9.0)
        with pytest.raises(ClusterError):
            decode_packet_batch(data[:-3])
        with pytest.raises(ClusterError):
            decode_packet_batch(data[:4])

    def test_trailing_bytes_raise(self):
        data = encode_packet_batch([(b"hello", 1)], 9.0)
        with pytest.raises(ClusterError):
            decode_packet_batch(data + b"\x00")

    def test_count_beyond_the_frames_raises(self):
        data = bytearray(encode_packet_batch([(b"hello", 1)], 9.0))
        data[4] = 2  # header announces two frames, one follows
        with pytest.raises(ClusterError):
            decode_packet_batch(bytes(data))

    def test_bad_magic_raises(self):
        with pytest.raises(ClusterError):
            decode_packet_batch(b"\x00\x00\x00\x00\x01")

    def test_not_confusable_with_other_frames(self):
        # JSON control frames start with '{', single binary packets 0xB1.
        assert not is_packet_batch(b'{"op": "flush"}')
        assert not is_packet_batch(b"\xb1whatever")
        assert not is_packet_batch(b"")


def _rows(records):
    """The records' rows: each one's fields minus ``record_id``."""
    return [astuple(record)[1:] for record in records]


def _round_trip(records):
    rows = decode_record_frame(encode_record_frame(_rows(records)))
    assert len(rows) == len(records)
    return [
        record_from_row(row, record.record_id)
        for row, record in zip(rows, records)
    ]


_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_STAMP = st.none() | st.floats(allow_nan=False)  # stamps are never NaN
_TEXT = st.text(max_size=12)
_RECORDS = st.lists(
    st.builds(
        PacketRecord,
        record_id=_INT64, seqno=_INT64, source=_INT64, destination=_INT64,
        sender=_INT64,
        # -1 is the wire's None; a real receiver is a concrete node id.
        receiver=st.none() | st.integers(min_value=0, max_value=2**63 - 1),
        channel=_INT64, kind=_TEXT, size_bits=_INT64,
        t_origin=_STAMP, t_receipt=_STAMP, t_forward=_STAMP,
        t_delivered=_STAMP, drop_reason=st.none() | _TEXT,
    ),
    max_size=8,
)


class TestRecordRows:
    """The worker → parent record frame (rows carry no record id: the
    parent supplies the final one when it builds the record)."""

    def test_round_trip(self):
        record = PacketRecord(
            record_id=7,
            seqno=3,
            source=1,
            destination=2,
            sender=1,
            receiver=2,
            channel=1,
            kind="data",
            size_bits=256,
            t_origin=0.5,
            t_receipt=0.5,
            t_forward=0.503,
            t_delivered=0.503,
            drop_reason=None,
        )
        assert _round_trip([record]) == [record]

    def test_round_trip_drop_record(self):
        record = PacketRecord(
            record_id=1,
            seqno=1,
            source=4,
            destination=5,
            sender=4,
            receiver=None,
            channel=2,
            kind="data",
            size_bits=64,
            t_origin=1.0,
            t_receipt=1.0,
            t_forward=None,
            t_delivered=None,
            drop_reason="loss",
        )
        assert _round_trip([record]) == [record]

    def test_wrong_arity_raises(self):
        frame = encode_record_frame(_rows([_delivered_record()]))
        with pytest.raises(ClusterError):
            decode_record_frame(frame + b"\x00" * 17)  # not a whole row

    @given(_RECORDS)
    def test_round_trip_is_identity(self, records):
        # Includes 0 records, receiver=None, any subset of stamps None,
        # non-ASCII strings and int64 edge values.
        assert _round_trip(records) == records

    @given(_RECORDS, st.data())
    def test_truncated_frames_raise_cluster_error(self, records, data):
        frame = encode_record_frame(_rows(records))
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        with pytest.raises(ClusterError):
            decode_record_frame(frame[:cut])
        with pytest.raises(ClusterError):
            decode_record_frame(frame + b"\x00")

    @given(_RECORDS, st.data())
    def test_mutated_frames_raise_nothing_but_cluster_error(
        self, records, data
    ):
        frame = bytearray(encode_record_frame(_rows(records)))
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            at = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
            frame[at] = data.draw(st.integers(min_value=0, max_value=255))
        try:
            decode_record_frame(bytes(frame))
        except ClusterError:
            pass  # anything else propagates and fails the test

    def test_string_index_out_of_range_raises(self):
        frame = bytearray(encode_record_frame(_rows([_delivered_record()])))
        kind_at = len(frame) - 92 + 48  # the one row's kind index
        frame[kind_at : kind_at + 2] = b"\x00\x07"
        with pytest.raises(ClusterError):
            decode_record_frame(bytes(frame))

    def test_bad_string_table_raises(self):
        frame = bytearray(encode_record_frame(_rows([_delivered_record()])))
        frame[9] = 0xFF  # first byte of the only string: invalid utf-8
        with pytest.raises(ClusterError):
            decode_record_frame(bytes(frame))

    def test_value_outside_the_row_raises(self):
        with pytest.raises(ClusterError):
            encode_record_frame(_rows([_delivered_record(seqno=2**63)]))


def _delivered_record(seqno=1):
    return PacketRecord(
        record_id=1, seqno=seqno, source=4, destination=5, sender=4,
        receiver=5, channel=2, kind="data", size_bits=64,
        t_origin=1.0, t_receipt=1.0, t_forward=1.5, t_delivered=1.5,
    )
