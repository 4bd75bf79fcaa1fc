"""Tests for repro.net.framing — length-prefixed stream framing."""

import itertools
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FramingError, TransportError
from repro.net.framing import (
    MAX_FRAME,
    RECV_CHUNK,
    FrameBuffer,
    FrameReader,
    pack_frame,
    recv_frame,
    send_frame,
    send_frames,
)


class TestPackFrame:
    def test_header_is_length(self):
        frame = pack_frame(b"abc")
        assert frame == b"\x00\x00\x00\x03abc"

    def test_empty_payload(self):
        assert pack_frame(b"") == b"\x00\x00\x00\x00"

    def test_oversized_rejected(self):
        with pytest.raises(FramingError):
            pack_frame(b"x" * (MAX_FRAME + 1))


class TestFrameBuffer:
    def test_whole_frame(self):
        buf = FrameBuffer()
        assert buf.feed(pack_frame(b"hello")) == [b"hello"]

    def test_byte_at_a_time(self):
        buf = FrameBuffer()
        frames = []
        for byte in pack_frame(b"chunked"):
            frames.extend(buf.feed(bytes([byte])))
        assert frames == [b"chunked"]

    def test_multiple_frames_one_feed(self):
        buf = FrameBuffer()
        data = pack_frame(b"a") + pack_frame(b"bb") + pack_frame(b"")
        assert buf.feed(data) == [b"a", b"bb", b""]

    def test_partial_then_complete(self):
        buf = FrameBuffer()
        frame = pack_frame(b"split")
        assert buf.feed(frame[:3]) == []
        assert buf.pending_bytes == 3
        assert buf.feed(frame[3:]) == [b"split"]
        assert buf.pending_bytes == 0

    def test_oversized_announcement_rejected(self):
        buf = FrameBuffer()
        with pytest.raises(FramingError):
            buf.feed((MAX_FRAME + 1).to_bytes(4, "big"))

    @given(st.lists(st.binary(max_size=200), max_size=20),
           st.integers(1, 7))
    def test_roundtrip_any_chunking(self, payloads, chunk):
        stream = b"".join(pack_frame(p) for p in payloads)
        buf = FrameBuffer()
        out = []
        for i in range(0, len(stream), chunk):
            out.extend(buf.feed(stream[i : i + chunk]))
        assert out == payloads

    def test_oversized_announcement_rejected_before_its_body(self):
        """The bound is checked when the header is parsed, not once the
        announced body has been buffered."""
        buf = FrameBuffer()
        with pytest.raises(FramingError):
            buf.feed((MAX_FRAME + 1).to_bytes(4, "big") + b"x" * 100)

    def test_eof_at_boundary_is_clean_inside_a_frame_is_not(self):
        buf = FrameBuffer()
        buf.eof()  # nothing buffered: an orderly close
        assert buf.feed(pack_frame(b"whole") + b"\x00\x00") == [b"whole"]
        with pytest.raises(FramingError):
            buf.eof()

    def test_largest_frame_in_recv_sized_chunks_is_linear(self):
        """A 16 MiB frame arriving 64 KiB at a time is appended to, never
        re-concatenated: 256 feeds copy 16 MiB, not 2 GiB."""
        payload = bytes(MAX_FRAME)
        stream = pack_frame(payload) + pack_frame(b"next")
        buf = FrameBuffer()
        out = []
        start = time.perf_counter()
        for i in range(0, len(stream), RECV_CHUNK):
            out.extend(buf.feed(stream[i : i + RECV_CHUNK]))
        elapsed = time.perf_counter() - start
        assert [len(f) for f in out] == [MAX_FRAME, 4]
        assert out[1] == b"next" and buf.pending_bytes == 0
        assert elapsed < 2.0, f"{elapsed:.2f}s: quadratic re-buffering?"

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.just(b""),
                st.binary(max_size=300),
                st.integers(RECV_CHUNK + 1, 3 * RECV_CHUNK).map(
                    lambda n: bytes([n % 251]) * n
                ),
            ),
            max_size=8,
        ),
        st.lists(st.integers(1, 2 * RECV_CHUNK), min_size=1, max_size=6),
    )
    def test_feed_yields_what_recv_frame_yields(self, payloads, cuts):
        """Differential: for any frame list (empty frames, frames larger
        than one read) and any chunking, ``feed`` — bare and behind
        ``FrameReader`` — yields exactly the frames ``recv_frame`` reads
        off a socket carrying the same stream."""
        stream = b"".join(pack_frame(p) for p in payloads)

        fed, buf, pos = [], FrameBuffer(), 0
        for size in itertools.cycle(cuts):
            if pos >= len(stream):
                break
            fed.extend(buf.feed(stream[pos : pos + size]))
            pos += size
        buf.eof()

        def over_socket(make_read):
            a, b = socket.socketpair()
            writer = threading.Thread(
                target=lambda: (a.sendall(stream), a.close())
            )
            writer.start()
            try:
                return list(iter(make_read(b), None))
            finally:
                writer.join()
                b.close()

        reference = over_socket(lambda sock: lambda: recv_frame(sock))
        through_reader = over_socket(lambda sock: FrameReader(sock).recv_frame)
        assert fed == reference == through_reader == payloads


class TestSocketFraming:
    def _pair(self):
        a, b = socket.socketpair()
        return a, b

    def test_roundtrip(self):
        a, b = self._pair()
        try:
            send_frame(a, b"over the wire")
            assert recv_frame(b) == b"over the wire"
        finally:
            a.close()
            b.close()

    def test_multiple_messages_in_order(self):
        a, b = self._pair()
        try:
            for i in range(10):
                send_frame(a, f"msg{i}".encode())
            for i in range(10):
                assert recv_frame(b) == f"msg{i}".encode()
        finally:
            a.close()
            b.close()

    def test_orderly_close_returns_none(self):
        a, b = self._pair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_midframe_close_raises(self):
        a, b = self._pair()
        try:
            a.sendall(b"\x00\x00\x00\x10partial")
            a.close()
            with pytest.raises(FramingError):
                recv_frame(b)
        finally:
            b.close()

    def test_large_frame(self):
        a, b = self._pair()
        payload = bytes(range(256)) * 1000  # 256 KB
        try:
            t = threading.Thread(target=send_frame, args=(a, payload))
            t.start()
            assert recv_frame(b) == payload
            t.join()
        finally:
            a.close()
            b.close()


class TestFrameReader:
    def test_one_recv_serves_many_frames(self):
        """The reader's point: frames that arrived together cost one
        ``recv``, not two each."""
        a, b = socket.socketpair()
        calls = []

        class Counting:
            def recv(self, n):
                calls.append(n)
                return b.recv(n)

        try:
            a.sendall(b"".join(pack_frame(b"f%d" % i) for i in range(50)))
            reader = FrameReader(Counting())
            assert [reader.recv_frame() for _ in range(50)] == [
                b"f%d" % i for i in range(50)
            ]
            assert len(calls) == 1
            a.close()
            assert reader.recv_frame() is None
        finally:
            a.close()
            b.close()

    def test_has_frame_only_for_a_whole_buffered_frame(self):
        a, b = socket.socketpair()
        try:
            reader = FrameReader(b)
            assert not reader.has_frame
            a.sendall(pack_frame(b"x") + pack_frame(b"y") + b"\x00\x00")
            assert reader.recv_frame() == b"x"
            assert reader.has_frame
            assert reader.recv_frame() == b"y"
            assert not reader.has_frame  # half a header is not a frame
        finally:
            a.close()
            b.close()

    def test_midframe_close_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\x10partial")
            a.close()
            with pytest.raises(FramingError):
                FrameReader(b).recv_frame()
        finally:
            b.close()

    def test_socket_error_is_a_transport_error(self):
        a, b = socket.socketpair()
        a.close()
        b.close()
        with pytest.raises(TransportError):
            FrameReader(b).recv_frame()


class TestSendFrames:
    def test_blocking_socket_takes_everything(self):
        a, b = socket.socketpair()
        try:
            assert not send_frames(a, [b"one", b"", b"three"])
            assert [recv_frame(b) for _ in range(3)] == [b"one", b"", b"three"]
            assert not send_frames(a, [])  # nothing to write
        finally:
            a.close()
            b.close()

    def test_nonblocking_socket_returns_the_unsent_tail(self):
        """What the kernel refuses comes back, and handing it back as
        ``tail`` completes the stream byte for byte."""
        a, b = socket.socketpair()
        a.setblocking(False)
        a.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        payloads = [bytes([i]) * 50_000 for i in range(8)]
        got = []
        done = threading.Event()

        def reader():
            for frame in iter(lambda: recv_frame(b), None):
                got.append(frame)
            done.set()

        t = threading.Thread(target=reader)
        try:
            tail = send_frames(a, payloads)
            assert tail, "400 kB fit a 4 kB send buffer?"
            t.start()
            deadline = time.monotonic() + 10.0
            while tail and time.monotonic() < deadline:
                tail = send_frames(a, (), tail)
            assert not tail
            a.close()
            assert done.wait(5.0)
            assert got == payloads
        finally:
            a.close()
            t.join(timeout=5.0)
            b.close()

    def test_dead_peer_is_a_transport_error(self):
        a, b = socket.socketpair()
        b.close()
        try:
            with pytest.raises(TransportError):
                send_frames(a, [b"x" * 10])
                send_frames(a, [b"x" * 10])  # EPIPE at the latest here
        finally:
            a.close()
