"""Parent↔worker transport of the sharded cluster.

Each worker hangs off one ``multiprocessing`` pipe.  Three frame flavors
share it, distinguished by the first byte exactly like the TCP stack's
packet and control frames (:mod:`repro.net.messages`):

* **control** — a JSON message (first byte ``{``), encoded/decoded by
  the existing :func:`~repro.net.messages.encode_message` codec;
* **packet batch** (parent → worker) — magic ``0xB2``, then a count and
  a sequence of length-prefixed PR 2 binary packet frames (magic
  ``0xB1`` inside);
* **record frame** (worker → parent) — magic ``0xB3``: a worker's whole
  drained packet log as fixed-width struct rows behind a small string
  table, one frame per ``collect``, sent right after the
  ``worker_report`` control message.

Batching is the point: ``Connection.send_bytes`` does one syscall pair
per message, so shipping 32 frames per send amortizes IPC overhead the
same way the TCP sender loop's ``send_frames`` batches writes.

The batch header carries a wall-clock **send stamp** and each frame an
8-byte **trace id** (0 = untraced): the Dapper-style cross-process
propagation that lets a parent-sampled pipeline trace continue in the
worker.  The stamp is ``time.time()`` — the one clock both sides of a
pipe on the same machine share — so the worker's ``recv − t_sent``
delta is the real pipe dwell (the ``ipc_queue`` stage).

Record frame layout::

    offset  size  field
    0       1     magic 0xB3
    1       4     record count N        (uint32)
    5       2     string count S        (uint16)
    7       ...   S × (uint16 length, utf-8 bytes): every distinct
                  ``kind`` / ``drop_reason`` of the frame, once
    ...     92×N  rows in worker-log order: seqno, source, destination,
                  sender, receiver (int64; receiver -1 = None), channel
                  (int64), kind (uint16 string index), size_bits (int64),
                  t_origin, t_receipt, t_forward, t_delivered (float64;
                  NaN = None), drop_reason (uint16 string index;
                  0xFFFF = None)

Rows carry no record id: they are the workers' recorder rows
(:data:`~repro.core.packet.PacketRow`), and the parent's recorder
assigns the final ids as it appends the cross-worker merge, so each
:class:`~repro.core.packet.PacketRecord` is built exactly once
(:func:`record_from_row`).  Both binary decoders
reject every malformed frame — truncation, trailing bytes, a
count/length mismatch, a bad string table or string index — with
:class:`~repro.errors.ClusterError`.

Completed *trace spans* still travel worker → parent as flat rows inside
the JSON control messages (:func:`span_to_row` / :func:`span_from_row`).
"""

from __future__ import annotations

import struct
from typing import Any, Optional, Sequence

from ..core.packet import PacketRecord, PacketRow
from ..errors import ClusterError
from ..obs.tracing import TraceSpan

__all__ = [
    "BATCH_MAGIC",
    "encode_packet_batch",
    "decode_packet_batch",
    "is_packet_batch",
    "RECORD_MAGIC",
    "encode_record_frame",
    "decode_record_frame",
    "record_from_row",
    "row_event_time",
    "span_to_row",
    "span_from_row",
]

BATCH_MAGIC = 0xB2
"""First byte of a packet-batch frame (0xB1 = single binary packet,
``{`` = JSON control)."""

_BATCH_HEADER = struct.Struct(">BId")  # magic, count, t_sent (epoch s)
_ENTRY = struct.Struct(">QI")  # per-frame trace id (0 = untraced), length


def is_packet_batch(data: bytes) -> bool:
    """Magic-byte sniff, mirroring ``is_binary_frame``."""
    return bool(data) and data[0] == BATCH_MAGIC


def encode_packet_batch(
    entries: Sequence[tuple[bytes, int]], t_sent: float
) -> bytes:
    """Pack ``(binary_frame, trace_id)`` pairs into one stamped batch."""
    parts = [_BATCH_HEADER.pack(BATCH_MAGIC, len(entries), t_sent)]
    for frame, trace_id in entries:
        parts.append(_ENTRY.pack(trace_id, len(frame)))
        parts.append(frame)
    return b"".join(parts)


def decode_packet_batch(
    data: bytes,
) -> tuple[list[tuple[bytes, int]], float]:
    """Unpack a batch into ``([(frame, trace_id), ...], t_sent)``."""
    try:
        magic, count, t_sent = _BATCH_HEADER.unpack_from(data)
    except struct.error as exc:
        raise ClusterError(f"truncated packet batch: {exc}") from exc
    if magic != BATCH_MAGIC:
        raise ClusterError(f"bad batch magic: {magic:#x}")
    entries: list[tuple[bytes, int]] = []
    offset = _BATCH_HEADER.size
    for _ in range(count):
        try:
            trace_id, length = _ENTRY.unpack_from(data, offset)
        except struct.error as exc:
            raise ClusterError(f"truncated packet batch: {exc}") from exc
        offset += _ENTRY.size
        end = offset + length
        if len(data) < end:
            raise ClusterError("packet batch truncated inside a frame")
        entries.append((data[offset:end], trace_id))
        offset = end
    if offset != len(data):
        raise ClusterError(
            f"packet batch has {len(data) - offset} trailing bytes"
        )
    return entries, t_sent


# -- record frame (worker → parent, beside worker_report) ----------------------

RECORD_MAGIC = 0xB3
"""First byte of a record frame."""

_RECORD_HEADER = struct.Struct(">BIH")  # magic, record count, string count
_STRING_LEN = struct.Struct(">H")
# A PacketRecord's fields in order, minus record_id (see module docstring).
_RECORD_ROW = struct.Struct(">6qHq4dH")
_NO_STRING = 0xFFFF  # drop_reason index meaning None
_NAN = float("nan")


def encode_record_frame(rows: Sequence[PacketRow]) -> bytes:
    """Pack a worker's packet log (its rows, in log order) into one
    record frame."""
    strings: dict[str, int] = {}
    index = strings.setdefault
    pack = _RECORD_ROW.pack
    packed = []
    try:
        for (
            seqno, source, destination, sender, receiver, channel, kind,
            size_bits, t_origin, t_receipt, t_forward, t_delivered, drop,
        ) in rows:
            packed.append(
                pack(
                    seqno, source, destination, sender,
                    -1 if receiver is None else receiver,
                    channel, index(kind, len(strings)), size_bits,
                    _NAN if t_origin is None else t_origin,
                    _NAN if t_receipt is None else t_receipt,
                    _NAN if t_forward is None else t_forward,
                    _NAN if t_delivered is None else t_delivered,
                    _NO_STRING if drop is None
                    else index(drop, len(strings)),
                )
            )
        parts = [_RECORD_HEADER.pack(RECORD_MAGIC, len(packed), len(strings))]
        for raw in (s.encode("utf-8") for s in strings):
            parts += (_STRING_LEN.pack(len(raw)), raw)
    except struct.error as exc:
        raise ClusterError(f"record does not fit the frame: {exc}") from exc
    return b"".join(parts + packed)


def decode_record_frame(data: bytes) -> list[PacketRow]:
    """Unpack a record frame into rows, in worker-log order, with
    ``None`` and the strings restored — the parent's recorder assigns
    their ids and :func:`record_from_row` builds the records.
    """
    try:
        magic, count, n_strings = _RECORD_HEADER.unpack_from(data)
        if magic != RECORD_MAGIC:
            raise ClusterError(f"bad record-frame magic: {magic:#x}")
        offset = _RECORD_HEADER.size
        strings = []
        for _ in range(n_strings):
            (length,) = _STRING_LEN.unpack_from(data, offset)
            offset += _STRING_LEN.size
            if len(data) < offset + length:
                raise ClusterError("record frame truncated inside a string")
            strings.append(data[offset : offset + length].decode("utf-8"))
            offset += length
        if len(data) - offset != count * _RECORD_ROW.size:
            raise ClusterError(
                f"record frame announces {count} rows but carries "
                f"{len(data) - offset} row bytes"
            )
        return [
            (
                seqno, source, destination, sender,
                None if receiver == -1 else receiver,
                channel, strings[kind], size_bits,
                None if t_origin != t_origin else t_origin,
                None if t_receipt != t_receipt else t_receipt,
                None if t_forward != t_forward else t_forward,
                None if t_delivered != t_delivered else t_delivered,
                None if drop == _NO_STRING else strings[drop],
            )
            for (
                seqno, source, destination, sender, receiver, channel,
                kind, size_bits, t_origin, t_receipt, t_forward,
                t_delivered, drop,
            ) in _RECORD_ROW.iter_unpack(memoryview(data)[offset:])
        ]
    except (struct.error, UnicodeDecodeError, IndexError) as exc:
        raise ClusterError(f"malformed record frame: {exc}") from exc


def record_from_row(row: PacketRow, record_id: int) -> PacketRecord:
    """*The* per-row record builder: one decoded row + its final id."""
    return PacketRecord(record_id, *row)


def row_event_time(row: PacketRow) -> float:
    """Merge key: when the row's terminal event happened (delivery time,
    falling back through the stamp chain)."""
    for stamp in (row[11], row[10], row[9], row[8]):
        if stamp is not None:
            return stamp
    return 0.0


def _opt(v: Any) -> Optional[float]:
    return None if v is None else float(v)


# -- span rows (worker → parent, inside JSON worker_report) --------------------

#: Column order of a trace-span row (stages ride as ``[name, dur]`` pairs).
SPAN_ROW_FIELDS = (
    "trace_id",
    "source",
    "seqno",
    "channel",
    "sender",
    "receiver",
    "t_start",
    "outcome",
    "t_forward",
    "lag",
    "stages",
)


def span_to_row(span: TraceSpan) -> list[Any]:
    """Flatten one completed trace span to a JSON-safe row."""
    return [
        span.trace_id,
        span.source,
        span.seqno,
        span.channel,
        span.sender,
        span.receiver,
        span.t_start,
        span.outcome,
        span.t_forward,
        span.lag,
        [[n, d] for n, d in span.stages],
    ]


def span_from_row(row: Sequence[Any]) -> TraceSpan:
    """Inverse of :func:`span_to_row`."""
    if len(row) != len(SPAN_ROW_FIELDS):
        raise ClusterError(
            f"span row has {len(row)} fields, expected"
            f" {len(SPAN_ROW_FIELDS)}"
        )
    return TraceSpan(
        trace_id=int(row[0]),
        source=int(row[1]),
        seqno=int(row[2]),
        channel=int(row[3]),
        sender=int(row[4]),
        receiver=None if row[5] is None else int(row[5]),
        t_start=float(row[6]),
        outcome=str(row[7]),
        t_forward=_opt(row[8]),
        lag=_opt(row[9]),
        stages=tuple((str(n), float(d)) for n, d in row[10]),
    )
