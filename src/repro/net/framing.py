"""Length-prefixed message framing over stream sockets.

PoEm connects clients and server "through TCP/IP connections independent
of low layers" (§3.1).  TCP is a byte stream, so every message is framed
with a 4-byte big-endian length prefix.  A maximum frame size guards the
server against a misbehaving client streaming an absurd length (the frame
would otherwise be buffered wholesale).
"""

from __future__ import annotations

import socket
import struct
from collections import deque
from typing import Optional, Sequence, Union

from ..errors import FramingError, TransportError

__all__ = [
    "MAX_FRAME",
    "RECV_CHUNK",
    "send_frame",
    "send_frames",
    "recv_frame",
    "pack_frame",
    "FrameBuffer",
    "FrameReader",
]

MAX_FRAME = 16 * 1024 * 1024
"""Upper bound on one frame's payload (16 MiB)."""

RECV_CHUNK = 65536
"""Upper bound on one ``recv`` (bytes)."""

_HEADER = struct.Struct(">I")


def pack_frame(payload: bytes) -> bytes:
    """Prefix ``payload`` with its length."""
    if len(payload) > MAX_FRAME:
        raise FramingError(f"frame too large: {len(payload)} > {MAX_FRAME}")
    return _HEADER.pack(len(payload)) + payload


def send_frame(sock: socket.socket, payload: bytes) -> None:
    """Send one framed message (blocking)."""
    try:
        sock.sendall(pack_frame(payload))
    except OSError as exc:
        raise TransportError(f"send failed: {exc}") from exc


def send_frames(
    sock: socket.socket,
    payloads: Sequence[bytes],
    tail: Union[bytes, memoryview] = b"",
) -> Union[bytes, memoryview]:
    """Write ``tail`` and then the framed ``payloads`` with **one** write.

    A burst of deliveries leaving for the same client coalesces into a
    single syscall (and usually one TCP segment) instead of one write per
    frame.  Returns the bytes the socket did not take: always empty on a
    blocking socket (``sendall``); on a non-blocking one, whatever did not
    fit its buffer.  The caller hands that back as ``tail`` once the
    socket is writable again, so a frame whose first bytes are on the wire
    is completed before anything else is written.
    """
    data = b"".join([tail, *map(pack_frame, payloads)]) if payloads else tail
    if not data:
        return b""
    try:
        if sock.getblocking():
            sock.sendall(data)
            return b""
        sent = sock.send(data)
    except BlockingIOError:
        sent = 0
    except OSError as exc:
        raise TransportError(f"send failed: {exc}") from exc
    return memoryview(data)[sent:] if sent < len(data) else b""


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; None on orderly EOF at a frame boundary."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        try:
            chunk = sock.recv(min(n - got, RECV_CHUNK))
        except OSError as exc:
            raise TransportError(f"recv failed: {exc}") from exc
        if not chunk:
            if got == 0:
                return None
            raise FramingError(f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[bytes]:
    """Receive one framed message; None on orderly peer close.

    Two reads per frame (header, body) and never a byte past it: for
    callers that hand the socket on afterwards.  Server and client read
    through :class:`FrameBuffer` instead.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise FramingError(f"peer announced oversized frame: {length}")
    if length == 0:
        return b""
    body = _recv_exact(sock, length)
    if body is None:
        raise FramingError("connection closed between header and body")
    return body


class FrameBuffer:
    """Incremental de-framer: feed it what a read brought, complete
    frames come out.

    The one parser of inbound streams: the server's readiness loop feeds
    it one bounded ``recv`` per readable socket, the client reads through
    it via :class:`FrameReader`.  Work is linear in the bytes fed — a
    frame arriving in many chunks is appended to, never re-concatenated —
    and an oversized announcement is refused when its header is parsed,
    before any of the body is buffered.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        """Append ``data``; return every now-complete frame payload."""
        buf = self._buf
        buf += data
        frames: list[bytes] = []
        pos, size = 0, len(buf)
        with memoryview(buf) as view:
            while size - pos >= _HEADER.size:
                (length,) = _HEADER.unpack_from(view, pos)
                if length > MAX_FRAME:
                    raise FramingError(f"oversized frame announced: {length}")
                end = pos + _HEADER.size + length
                if end > size:
                    break
                frames.append(view[pos + _HEADER.size : end].tobytes())
                pos = end
        del buf[:pos]
        return frames

    def eof(self) -> None:
        """The stream ended: fine at a frame boundary, a
        :class:`FramingError` inside a frame."""
        if self._buf:
            raise FramingError(
                f"connection closed mid-frame ({len(self._buf)} bytes buffered)"
            )

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buf)


class FrameReader:
    """Blocking frame-at-a-time reads of one socket through a
    :class:`FrameBuffer`: a ``recv`` that brought several frames serves
    the following calls without touching the socket again.

    Reads with ``sock.recv(n)`` only, so socket wrappers (fault
    injection, counting) see every read.
    """

    def __init__(self, sock) -> None:
        self._sock = sock
        self._buf = FrameBuffer()
        self._ready: deque[bytes] = deque()

    @property
    def has_frame(self) -> bool:
        """A whole frame is buffered: :meth:`recv_frame` will not read."""
        return bool(self._ready)

    def recv_frame(self) -> Optional[bytes]:
        """The next frame; None on orderly peer close."""
        ready = self._ready
        while not ready:
            try:
                chunk = self._sock.recv(RECV_CHUNK)
            except OSError as exc:
                raise TransportError(f"recv failed: {exc}") from exc
            if not chunk:
                self._buf.eof()
                return None
            ready.extend(self._buf.feed(chunk))
        return ready.popleft()
