"""Tests for repro.net.messages — the client↔server wire protocol."""

import pytest

from repro.core.ids import BROADCAST_NODE, ChannelId, NodeId
from repro.core.packet import Packet
from repro.errors import TransportError
from repro.net.messages import (
    BINARY_MAGIC,
    decode_message,
    decode_packet_binary,
    encode_message,
    encode_packet_binary,
    is_binary_frame,
    packet_from_wire,
    packet_to_wire,
)


class TestMessages:
    def test_roundtrip(self):
        msg = {"op": "register", "x": 1.5, "radios": [{"channel": 1}]}
        assert decode_message(encode_message(msg)) == msg

    def test_missing_op_rejected_on_encode(self):
        with pytest.raises(TransportError):
            encode_message({"x": 1})

    def test_control_frames_carry_optional_profile(self):
        from repro.net.messages import (
            make_flushed,
            make_telemetry_report,
            make_worker_report,
        )

        profile = {"role": "worker-0", "stacks": {"worker-0;t;f": 3}}
        sample = dict(
            counters={}, queue_depth=0, busy_fraction=0.0, shard_ingested=0
        )
        flushed = make_flushed(2, 0, profile=profile, **sample)
        assert flushed["profile"] == profile
        # Omitted: the key is absent, not null — bare workers stay bare.
        assert "profile" not in make_flushed(2, 0, **sample)
        assert "profile" not in make_worker_report(0, **sample)
        report = make_worker_report(0, profile=profile, **sample)
        assert report["profile"] == profile
        assert "records" not in report  # they ride the binary record frame
        telem = make_telemetry_report(0, profile=profile, **sample)
        assert decode_message(encode_message(telem))["profile"] == profile
        # One sample, three carriers: whatever a worker samples rides
        # every reply under the same keys, apart from each op's own.
        full = dict(
            sample, profile=profile, telemetry={"metrics": []},
            spans=[[1, 2, 3]],
        )
        own = {"op", "worker", "id"}
        for built in (
            make_flushed(2, 0, **full),
            make_worker_report(0, **full),
            make_telemetry_report(0, **full),
        ):
            assert {k: v for k, v in built.items() if k not in own} == full
            assert built["worker"] == 0

    def test_scene_moves_round_trips_positions_exactly(self):
        from repro.net.messages import make_scene_moves

        moves = [[3, 0.1 + 0.2, -1e-17], [9, 1 / 3, 2.0**60]]
        msg = decode_message(encode_message(make_scene_moves(12, 1.5, moves)))
        assert msg == {
            "op": "scene_moves", "version": 12, "t": 1.5, "moves": moves,
        }

    def test_garbage_rejected_on_decode(self):
        with pytest.raises(TransportError):
            decode_message(b"\xff\xfe not json")
        with pytest.raises(TransportError):
            decode_message(b"[1,2,3]")
        with pytest.raises(TransportError):
            decode_message(b'{"no_op": 1}')


class TestPacketWire:
    def _packet(self, **kw):
        defaults = dict(
            source=NodeId(1),
            destination=NodeId(2),
            payload=b"\x00\x01binary\xff",
            size_bits=8192,
            seqno=17,
            channel=ChannelId(3),
            kind="control",
            t_origin=1.25,
            t_receipt=None,
            t_forward=2.5,
        )
        defaults.update(kw)
        return Packet(**defaults)

    def test_roundtrip_preserves_everything(self):
        p = self._packet()
        q = packet_from_wire(packet_to_wire(p))
        assert q == p

    def test_binary_payload_survives(self):
        p = self._packet(payload=bytes(range(256)))
        assert packet_from_wire(packet_to_wire(p)).payload == bytes(range(256))

    def test_broadcast_destination(self):
        p = self._packet(destination=BROADCAST_NODE)
        assert packet_from_wire(packet_to_wire(p)).is_broadcast

    def test_none_stamps_preserved(self):
        p = self._packet(t_origin=None, t_forward=None)
        q = packet_from_wire(packet_to_wire(p))
        assert q.t_origin is None and q.t_forward is None

    def test_json_roundtrip_through_message(self):
        p = self._packet()
        msg = {"op": "packet", "packet": packet_to_wire(p)}
        decoded = decode_message(encode_message(msg))
        assert packet_from_wire(decoded["packet"]) == p

    def test_malformed_dict_rejected(self):
        with pytest.raises(TransportError):
            packet_from_wire({"src": 1})  # missing fields


class TestBinaryCodec:
    """The struct-packed fast path must be a drop-in for the JSON codec."""

    def _packet(self, **kw):
        defaults = dict(
            source=NodeId(1),
            destination=NodeId(2),
            payload=b"\x00\x01binary\xff",
            size_bits=8192,
            seqno=17,
            channel=ChannelId(3),
            kind="control",
            t_origin=1.25,
            t_receipt=None,
            t_forward=2.5,
        )
        defaults.update(kw)
        return Packet(**defaults)

    def test_magic_disjoint_from_json(self):
        """A binary frame is detected by its first byte; a JSON message
        can never be mistaken for one (JSON starts with '{' = 0x7B)."""
        p = self._packet()
        frame = encode_packet_binary("packet", p)
        assert is_binary_frame(frame)
        assert frame[0] == BINARY_MAGIC
        assert not is_binary_frame(encode_message({"op": "ping", "t": 1.0}))
        assert not is_binary_frame(b"")

    def test_roundtrip_all_fields(self):
        p = self._packet(
            radio=1,
            t_receipt=3.125,
            t_delivered=4.0625,
        )
        op, q = decode_packet_binary(encode_packet_binary("deliver", p))
        assert op == "deliver"
        assert q == p

    def test_roundtrip_none_stamps(self):
        """NaN-encoded optional stamps decode back to None, each field
        independently."""
        for field in ("t_origin", "t_receipt", "t_forward", "t_delivered"):
            p = self._packet(**{field: None})
            op, q = decode_packet_binary(encode_packet_binary("packet", p))
            assert op == "packet"
            assert getattr(q, field) is None
            assert q == p

    def test_roundtrip_broadcast_and_binary_payload(self):
        p = self._packet(
            destination=BROADCAST_NODE, payload=bytes(range(256))
        )
        _, q = decode_packet_binary(encode_packet_binary("packet", p))
        assert q.is_broadcast
        assert q.payload == bytes(range(256))

    def test_matches_json_codec_field_for_field(self):
        """Both codecs decode to the identical Packet, for every field
        combination including absent stamps and utf-8 kinds."""
        variants = [
            self._packet(),
            self._packet(t_origin=None, t_receipt=None, t_forward=None,
                         t_delivered=None),
            self._packet(destination=BROADCAST_NODE, kind="hello"),
            self._packet(payload=b"", size_bits=1, seqno=2**40),
            self._packet(kind="ké", t_delivered=1e-9),
        ]
        for p in variants:
            via_json = packet_from_wire(packet_to_wire(p))
            _, via_binary = decode_packet_binary(
                encode_packet_binary("packet", p)
            )
            assert via_binary == via_json == p

    def test_empty_payload(self):
        p = self._packet(payload=b"", size_bits=64)
        _, q = decode_packet_binary(encode_packet_binary("packet", p))
        assert q.payload == b""

    def test_unknown_op_rejected_on_encode(self):
        with pytest.raises(TransportError):
            encode_packet_binary("scene_op", self._packet())

    def test_truncated_frame_rejected(self):
        frame = encode_packet_binary("packet", self._packet())
        with pytest.raises(TransportError):
            decode_packet_binary(frame[:20])

    def test_bad_op_code_rejected(self):
        frame = bytearray(encode_packet_binary("packet", self._packet()))
        frame[1] = 99
        with pytest.raises(TransportError):
            decode_packet_binary(bytes(frame))

    def test_bad_size_bits_rejected(self):
        """Field validation still runs: a non-positive size is refused."""
        frame = bytearray(encode_packet_binary("packet", self._packet()))
        # size_bits is the int64 at offset 26 (see messages module doc).
        frame[26:34] = (0).to_bytes(8, "big")
        with pytest.raises(TransportError):
            decode_packet_binary(bytes(frame))
