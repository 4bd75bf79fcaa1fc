"""Client↔server wire protocol of the real-time (TCP) deployment.

Length-prefixed frames (:mod:`.framing`): JSON control messages, and
``packet``/``deliver`` as 0xB1 binary frames (below).  The operation
set mirrors Fig 4's structure:

==============  direction        purpose
``register``    client → server  map this connection to a VMN (position,
                                 radios, label)
``registered``  server → client  confirms, returns the allocated node id
``sync_req``    client → server  clock-sync step 1 (carries ``t_c1``)
``sync_rep``    server → client  clock-sync step 3 (``t_s3`` + echo)
``packet``      client → server  a transmitted frame (with ``t_origin``;
                                 0xB1 binary frame)
``deliver``     server → client  a forwarded frame arriving at this VMN
                                 (0xB1 binary frame)
``scene_op``    client → server  a GUI-equivalent scene mutation (topology
                                 control from an operator console)
``ping``        either           liveness heartbeat (carries sender time
                                 ``t``); answered with ``pong``
``pong``        either           heartbeat answer (echoes the ping's ``t``)
``bye``         either           orderly shutdown
==============  ==============================================================

The sharded cluster (:mod:`repro.cluster.sharded`) reuses this codec on
its parent↔worker pipes for **control traffic** (packets ride the binary
fast path, batched by :mod:`repro.cluster.ipc`):

==================  direction        purpose
``scene_snapshot``  parent → worker  replicate an immutable version-stamped
                                     scene (:class:`~repro.core.scene.SceneSnapshot`):
                                     the bootstrap, and every non-move change
``scene_moves``     parent → worker  the node moves since the last scene frame,
                                     applied to the live replica as one tick
``flush``           parent → worker  barrier: run the worker's clock/engine
                                     up to ``t`` and report back
``flushed``         worker → parent  barrier ack, with the worker's sample
``collect``         parent → worker  drain the worker's packet log
``worker_report``   worker → parent  the sample; the drained records follow
                                     as one binary record frame
                                     (:mod:`repro.cluster.ipc`)
``shutdown``        parent → worker  orderly worker exit (acked with ``bye``)
``worker_error``    worker → parent  a worker pipeline failure (the parent
                                     raises it as :class:`ClusterError`)
==================  =========================================================

The heartbeat pair is the liveness layer of the fault-tolerance
subsystem: the server pings every client on a fixed interval and marks a
client *stale* after ``heartbeat_misses`` silent intervals — its VMN is
quarantined (traffic drops as ``node-stale``) for a grace period before
removal, so a transient stall does not tear routes out of the topology.

Binary packet frames
--------------------

``packet`` and ``deliver`` are the two high-rate operations, and they
have one encoding: a struct-packed binary frame, with no field names,
floats as float64 and payload bytes raw.  There is nothing to
negotiate — ``register`` carries no capability flag.  JSON is for
control traffic only (a handful of messages per client per session).
Both kinds share one port: :func:`is_binary_frame` separates them by
the first byte, the magic ``0xB1`` of a packet frame against the ``{``
(``0x7B``) every JSON message starts with.

Binary frame layout (inside the usual length prefix)::

    offset  size  field
    0       1     magic 0xB1
    1       1     op (1 = packet, 2 = deliver)
    2       8     source        (int64, -1 = broadcast sentinel)
    10      8     destination   (int64)
    18      8     seqno         (int64)
    26      8     size_bits     (int64)
    34      4     channel       (int32)
    38      2     radio         (uint16)
    40      8×4   t_origin, t_receipt, t_forward, t_delivered
                  (float64; NaN encodes None — stamps are never NaN)
    72      1     kind length K
    73      K     kind (utf-8)
    73+K    rest  payload (raw bytes, no text round trip)
"""

from __future__ import annotations

import json
import math
import struct
from typing import Any, Optional

from ..core.ids import ChannelId, NodeId, RadioIndex, SequenceNumber
from ..core.packet import Packet
from ..errors import ConfigurationError, TransportError

__all__ = [
    "encode_message",
    "decode_message",
    "make_ping",
    "make_pong",
    "make_scene_snapshot",
    "make_scene_moves",
    "make_flush",
    "make_flushed",
    "make_collect",
    "make_worker_report",
    "make_shutdown",
    "make_worker_error",
    "BINARY_MAGIC",
    "BINARY_OP_PACKET",
    "BINARY_OP_DELIVER",
    "is_binary_frame",
    "encode_packet_binary",
    "decode_packet_binary",
]


def encode_message(message: dict[str, Any]) -> bytes:
    """Serialize one protocol message."""
    if "op" not in message:
        raise TransportError(f"message missing op: {message}")
    return json.dumps(message, separators=(",", ":")).encode("utf-8")


def decode_message(data: bytes) -> dict[str, Any]:
    """Parse one protocol message; raises TransportError on garbage."""
    try:
        message = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError(f"undecodable message: {exc}") from exc
    if not isinstance(message, dict) or "op" not in message:
        raise TransportError(f"malformed message: {message!r}")
    return message


def make_ping(t: float, overload: Optional[str] = None) -> dict[str, Any]:
    """Build a liveness heartbeat stamped with the sender's clock.

    ``overload`` optionally piggybacks the server's overload state
    (``"pressured"``/``"saturated"``) so clients learn the emulator has
    left real-time territory without an extra message type.
    """
    msg: dict[str, Any] = {"op": "ping", "t": float(t)}
    if overload is not None:
        msg["overload"] = str(overload)
    return msg


def make_pong(ping: dict[str, Any]) -> dict[str, Any]:
    """Answer a ``ping``, echoing its time-stamp so the sender can
    estimate heartbeat round-trip if it cares to."""
    t = ping.get("t")
    return {"op": "pong", "t": None if t is None else float(t)}


# -- sharded-cluster control frames (parent ↔ worker pipes) --------------------


def make_scene_snapshot(scene: dict[str, Any], version: int) -> dict[str, Any]:
    """Replicate a scene snapshot to a worker.

    ``scene`` is the JSON form produced by
    :func:`repro.cluster.snapshot.snapshot_to_dict`; ``version`` is the
    snapshot's :attr:`~repro.core.scene.Scene.version` stamp — workers
    ignore snapshots *below* the version they already hold (an equal
    stamp still applies: quarantine/restore change the scene without
    bumping the version).
    """
    return {"op": "scene_snapshot", "version": int(version), "scene": scene}


def make_scene_moves(
    version: int, t: float, moves: list[list[Any]]
) -> dict[str, Any]:
    """Replicate node moves to a worker's live scene replica.

    ``moves`` is ``[[node, x, y], ...]``, one entry per moved node with
    its latest position; ``t`` is the parent's scene time and
    ``version`` its version once they landed.
    The worker applies the frame as one tick
    (:meth:`~repro.core.scene.Scene.move_nodes`); everything a move
    cannot express goes out as a ``scene_snapshot`` instead.
    """
    return {
        "op": "scene_moves",
        "version": int(version),
        "t": float(t),
        "moves": moves,
    }


def make_flush(t: float, flush_id: int) -> dict[str, Any]:
    """Barrier request: run the worker up to emulation time ``t``.

    ``flush_id`` is echoed in the ``flushed`` reply so the parent can
    match acks under strict request/response pipelining.
    """
    return {"op": "flush", "t": float(t), "id": int(flush_id)}


def _with_sample(msg: dict[str, Any], **sample: Any) -> dict[str, Any]:
    """Add a worker's health/telemetry sample to a reply: the one set
    of fields ``flushed`` and ``worker_report`` both carry, so the
    parent refreshes at every barrier.

    The sample (:meth:`repro.cluster.worker._WorkerState.sample`) is the
    worker core's ``health()`` sections — ``engine`` totals,
    ``schedule_depth``, ``overload``, ``deadline``
    — plus the shard fields ``busy_fraction``, ``shard_ingested`` and
    one per optional plane: ``telemetry``, the worker registry's
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`, folded in
    parent-side through :class:`~repro.obs.metrics.SnapshotMerger`;
    ``spans``, the trace spans completed since the last sample
    (:func:`repro.cluster.ipc.span_to_row` rows); ``profile``, the
    worker sampler's cumulative folded-stack snapshot
    (:meth:`~repro.obs.profiler.SamplingProfiler.snapshot`), folded
    through :class:`~repro.obs.profiler.ProfileMerger`.  A plane's field
    is left out, not null, when the worker runs without that plane.
    """
    msg.update((k, v) for k, v in sample.items() if v is not None)
    return msg


def make_flushed(flush_id: int, worker: int, **sample: Any) -> dict[str, Any]:
    """Barrier ack, carrying the worker's sample (:func:`_with_sample`)."""
    return _with_sample(
        {"op": "flushed", "id": int(flush_id), "worker": int(worker)},
        **sample,
    )


def make_collect() -> dict[str, Any]:
    """Drain request: the worker replies with a ``worker_report``."""
    return {"op": "collect"}


def make_worker_report(worker: int, **sample: Any) -> dict[str, Any]:
    """The worker's answer to ``collect``: its sample
    (:func:`_with_sample`).  The drained packet log itself follows as
    one binary record frame
    (:func:`repro.cluster.ipc.encode_record_frame`)."""
    return _with_sample(
        {"op": "worker_report", "worker": int(worker)}, **sample
    )


def make_shutdown() -> dict[str, Any]:
    """Orderly worker shutdown; the worker acks with ``bye`` and exits."""
    return {"op": "shutdown"}


def make_worker_error(
    worker: int, error: str, flight: Optional[str] = None
) -> dict[str, Any]:
    """A worker-side pipeline failure, surfaced to the parent.

    ``flight`` is the path of the flight-recorder artifact the dying
    worker managed to dump (None when the dump itself failed).
    """
    msg = {"op": "worker_error", "worker": int(worker), "error": str(error)}
    if flight is not None:
        msg["flight"] = str(flight)
    return msg


# -- binary packet frames -----------------------------------------------------

BINARY_MAGIC = 0xB1
"""First byte of every binary frame (a JSON message starts with 0x7B)."""

BINARY_OP_PACKET = 1
BINARY_OP_DELIVER = 2

_BINARY_OPS = {BINARY_OP_PACKET: "packet", BINARY_OP_DELIVER: "deliver"}
_BINARY_CODES = {name: code for code, name in _BINARY_OPS.items()}

_BIN_HEADER = struct.Struct(">BBqqqqiHddddB")
"""magic, op, source, destination, seqno, size_bits, channel, radio,
four stamps, kind length — everything before the kind/payload tail."""

_NAN = float("nan")
_isnan = math.isnan


def is_binary_frame(data: bytes) -> bool:
    """True when ``data`` is a binary packet frame (magic-byte sniff)."""
    return bool(data) and data[0] == BINARY_MAGIC


def encode_packet_binary(op: str, packet: Packet) -> bytes:
    """Encode a ``packet`` or ``deliver`` message as one binary frame."""
    code = _BINARY_CODES.get(op)
    if code is None:
        raise TransportError(f"op {op!r} has no binary encoding")
    kind = packet.kind.encode("utf-8")
    if len(kind) > 255:
        raise TransportError(f"packet kind too long for binary wire: {packet.kind!r}")
    header = _BIN_HEADER.pack(
        BINARY_MAGIC,
        code,
        int(packet.source),
        int(packet.destination),
        int(packet.seqno),
        packet.size_bits,
        int(packet.channel),
        int(packet.radio),
        _NAN if packet.t_origin is None else packet.t_origin,
        _NAN if packet.t_receipt is None else packet.t_receipt,
        _NAN if packet.t_forward is None else packet.t_forward,
        _NAN if packet.t_delivered is None else packet.t_delivered,
        len(kind),
    )
    return b"".join((header, kind, packet.payload))


def decode_packet_binary(data: bytes) -> tuple[str, Packet]:
    """Decode one binary frame; returns ``(op_name, packet)``.

    Raises :class:`TransportError` on truncation, a bad magic/op byte, or
    field values the :class:`Packet` constructor rejects.
    """
    try:
        (
            magic, code, src, dst, seq, bits, ch, radio,
            t_origin, t_receipt, t_forward, t_delivered, kind_len,
        ) = _BIN_HEADER.unpack_from(data)
    except struct.error as exc:
        raise TransportError(f"truncated binary frame: {exc}") from exc
    if magic != BINARY_MAGIC:
        raise TransportError(f"bad binary magic: {magic:#x}")
    op = _BINARY_OPS.get(code)
    if op is None:
        raise TransportError(f"unknown binary op code: {code}")
    kind_end = _BIN_HEADER.size + kind_len
    if len(data) < kind_end:
        raise TransportError("binary frame truncated inside kind field")
    try:
        packet = Packet(
            source=NodeId(src),
            destination=NodeId(dst),
            payload=data[kind_end:],
            size_bits=bits,
            seqno=SequenceNumber(seq),
            channel=ChannelId(ch),
            radio=RadioIndex(radio),
            kind=data[_BIN_HEADER.size : kind_end].decode("utf-8"),
            t_origin=None if _isnan(t_origin) else t_origin,
            t_receipt=None if _isnan(t_receipt) else t_receipt,
            t_forward=None if _isnan(t_forward) else t_forward,
            t_delivered=None if _isnan(t_delivered) else t_delivered,
        )
    except (ValueError, UnicodeDecodeError, ConfigurationError) as exc:
        raise TransportError(f"malformed binary packet frame: {exc}") from exc
    return op, packet
