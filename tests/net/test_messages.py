"""Tests for repro.net.messages — the client↔server wire protocol."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
)

INT64 = st.integers(-(2**63), 2**63 - 1)
STAMP = st.none() | st.floats(allow_nan=False)

packets = st.builds(
    Packet,
    source=INT64.map(NodeId),
    destination=st.just(BROADCAST_NODE) | INT64.map(NodeId),
    payload=st.binary(max_size=300),
    size_bits=st.integers(1, 2**63 - 1),
    seqno=INT64,
    channel=st.integers(-(2**31), 2**31 - 1).map(ChannelId),
    radio=st.integers(0, 2**16 - 1),
    kind=st.text(max_size=255).filter(lambda k: len(k.encode()) <= 255),
    t_origin=STAMP,
    t_receipt=STAMP,
    t_forward=STAMP,
    t_delivered=STAMP,
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
        assert decode_message(encode_message(report))["profile"] == profile
        # One sample, two carriers: whatever a worker samples rides
        # every reply under the same keys, apart from each op's own.
        full = dict(
            sample, profile=profile, telemetry={"metrics": []},
            spans=[[1, 2, 3]],
        )
        own = {"op", "worker", "id"}
        for built in (
            make_flushed(2, 0, **full),
            make_worker_report(0, **full),
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


def _mutated_tail(case):
    """A valid frame's bytes after the op byte, with a few overwritten."""
    p, edits = case
    tail = bytearray(encode_packet_binary("packet", p)[2:])
    for pos, value in edits:
        tail[pos % len(tail)] = value
    return bytes(tail)


class TestBinaryCodec:
    """The 0xB1 codec: the one encoding of ``packet`` and ``deliver``."""

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

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(op=st.sampled_from(["packet", "deliver"]), p=packets)
    @example(op="deliver", p=Packet(
        source=NodeId(1), destination=BROADCAST_NODE, payload=b"",
        size_bits=1, seqno=0, channel=ChannelId(1), kind="é" * 127 + "a",
    ))
    def test_round_trip_is_exact(self, op, p):
        """Every field combination — broadcast or unicast, absent or
        present stamps, utf-8 kinds up to 255 bytes, empty or binary
        payloads, both ops — decodes back to the same packet, and
        re-encodes to the same bytes."""
        frame = encode_packet_binary(op, p)
        assert decode_packet_binary(frame) == (op, p)
        assert encode_packet_binary(op, decode_packet_binary(frame)[1]) == frame

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        code=st.sampled_from([1, 2]) | st.integers(0, 255),
        tail=st.binary(max_size=200)
        | st.tuples(packets, st.lists(
            st.tuples(st.integers(0, 2**16), st.integers(0, 255)),
            min_size=1, max_size=4,
        )).map(_mutated_tail),
    )
    def test_arbitrary_frames_decode_or_raise_transport_error(
        self, code, tail
    ):
        """Whatever follows the magic and op bytes, decoding either
        raises TransportError or yields a packet that survives its own
        re-encode.  The re-encode need not be byte-identical: any NaN
        bit pattern in a stamp decodes to None, which encodes back as
        the one canonical NaN."""
        frame = bytes([BINARY_MAGIC, code]) + tail
        try:
            op, p = decode_packet_binary(frame)
        except TransportError:
            return
        assert decode_packet_binary(encode_packet_binary(op, p)) == (op, p)

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
