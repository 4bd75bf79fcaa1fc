"""Packets and their time-stamps.

A :class:`Packet` is what a routing protocol hands to its host: an opaque
payload plus addressing (source VMN, destination VMN or broadcast, and the
radio it was sent on).  The emulator never inspects the payload — the
paper's core promise is that *real implementations run unmodified* — it
only adds time-stamps as the packet moves through the pipeline:

``t_origin``
    stamped by the **client** at generation time using its synchronized
    clock.  This is the paper's *parallel time-stamping*: every client
    stamps concurrently, so recording accuracy does not degrade with the
    number of clients (contrast the Fig 2 serial-reception error).
``t_receipt``
    when the server pulled the packet off its incoming connection.
``t_forward``
    when the scheduling thread decided the packet leaves the emulated
    medium: ``t_forward = t_receipt + delay + size / bandwidth`` (§3.2
    Step 3; PoEm anchors the formula at the client-stamped receipt time).
``t_delivered``
    when the destination client actually received it.

Sizes are in **bits** so the bandwidth division in the forward-time formula
is unit-consistent with the paper's Mbps link model.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Optional, Union

from ..errors import ConfigurationError
from .ids import BROADCAST_NODE, ChannelId, NodeId, RadioIndex, SequenceNumber

__all__ = [
    "Packet", "PacketRecord", "PacketRow", "packet_row", "PacketStamper",
    "DropReason",
]


@dataclass(frozen=True, slots=True)
class Packet:
    """One protocol packet traversing the emulated medium.

    Immutable; pipeline stages produce stamped copies via :meth:`stamped`.
    """

    source: NodeId
    destination: NodeId
    payload: bytes
    size_bits: int
    seqno: SequenceNumber
    channel: ChannelId
    radio: RadioIndex = RadioIndex(0)
    kind: str = "data"
    t_origin: Optional[float] = None
    t_receipt: Optional[float] = None
    t_forward: Optional[float] = None
    t_delivered: Optional[float] = None

    def __post_init__(self) -> None:
        if self.size_bits <= 0:
            raise ConfigurationError(
                f"packet size must be positive, got {self.size_bits} bits"
            )

    @property
    def is_broadcast(self) -> bool:
        """True when addressed to all neighbors on the sending channel."""
        return self.destination == BROADCAST_NODE

    def stamped(self, **stamps: float) -> "Packet":
        """Return a copy with the given time-stamp fields set.

        Only the four ``t_*`` fields may be stamped; anything else would
        let pipeline code mutate addressing, which must stay exactly what
        the protocol implementation emitted.

        Implemented as a hand-rolled slot copy rather than
        ``dataclasses.replace`` — ``replace`` re-introspects the field
        list and re-runs ``__init__``/``__post_init__`` on every call,
        which once dominated the ingest profile.
        """
        bad = stamps.keys() - _STAMP_FIELDS
        if bad:
            raise ConfigurationError(f"cannot stamp non-timestamp fields: {bad}")
        new = self._copy()
        _set = object.__setattr__
        for name, value in stamps.items():
            _set(new, name, value)
        return new

    def _copy(self) -> "Packet":
        """Raw field-for-field copy, skipping ``__init__`` validation
        (the source instance already passed it)."""
        new = object.__new__(Packet)
        _set = object.__setattr__
        _set(new, "source", self.source)
        _set(new, "destination", self.destination)
        _set(new, "payload", self.payload)
        _set(new, "size_bits", self.size_bits)
        _set(new, "seqno", self.seqno)
        _set(new, "channel", self.channel)
        _set(new, "radio", self.radio)
        _set(new, "kind", self.kind)
        _set(new, "t_origin", self.t_origin)
        _set(new, "t_receipt", self.t_receipt)
        _set(new, "t_forward", self.t_forward)
        _set(new, "t_delivered", self.t_delivered)
        return new

    def transit_latency(self) -> Optional[float]:
        """End-to-end latency ``t_delivered - t_origin`` if both known."""
        if self.t_delivered is None or self.t_origin is None:
            return None
        return self.t_delivered - self.t_origin


_STAMP_FIELDS = frozenset(
    ("t_origin", "t_receipt", "t_forward", "t_delivered")
)


class DropReason:
    """Why the server dropped a packet (recorded for statistics/replay)."""

    NOT_NEIGHBOR = "not-neighbor"
    LOSS_MODEL = "loss-model"
    NO_SUCH_CHANNEL = "no-such-channel"
    QUEUE_OVERFLOW = "queue-overflow"
    NODE_REMOVED = "node-removed"
    COLLISION = "collision"
    NO_ENERGY = "no-energy"
    NODE_STALE = "node-stale"
    TRANSPORT_OVERFLOW = "transport-overflow"
    DEADLINE_SHED = "deadline-shed"

    ALL = (NOT_NEIGHBOR, LOSS_MODEL, NO_SUCH_CHANNEL, QUEUE_OVERFLOW,
           NODE_REMOVED, COLLISION, NO_ENERGY, NODE_STALE,
           TRANSPORT_OVERFLOW, DEADLINE_SHED)

    TRANSPORT = (NODE_STALE, TRANSPORT_OVERFLOW, DEADLINE_SHED)
    """Drops caused by the *emulator infrastructure* (a stalled or
    overflowing client, overload load-shedding), as opposed to the
    emulated radio medium."""


@dataclass(frozen=True, slots=True)
class PacketRecord:
    """One row in the packet log (§3.2 Step 7).

    Captures the complete information of an incoming/outgoing packet: the
    addressing, every time-stamp, the hop it traversed, and the outcome
    (delivered to ``receiver`` or dropped with ``drop_reason``).  The
    statistics and replay subsystems consume these rows.
    """

    record_id: int
    seqno: int
    source: int
    destination: int
    sender: int
    receiver: Optional[int]
    channel: int
    kind: str
    size_bits: int
    t_origin: Optional[float]
    t_receipt: Optional[float]
    t_forward: Optional[float]
    t_delivered: Optional[float]
    drop_reason: Optional[str] = None

    @property
    def dropped(self) -> bool:
        return self.drop_reason is not None


PacketRow = tuple
"""A :class:`PacketRecord`'s fields minus ``record_id``, in field order:
what the write path appends (the recorder assigns the id) and what the
cluster's record frame ships.  ``PacketRecord(record_id, *row)`` is the
record.

A row whose ``receiver`` field holds a tuple of nodes stands for one
record per element, in order, each with that node as its receiver: the
engine records a fan-out group, or a run of one packet's drops for one
reason, as one such row.  Every recorder expands it; a third-party
:class:`~repro.core.recording.Recorder` must too."""


def packet_row(
    packet: Packet,
    sender: NodeId,
    receiver: Union[None, NodeId, tuple[NodeId, ...]],
    drop_reason: Optional[str] = None,
    t_receipt: Optional[float] = None,
    t_forward: Optional[float] = None,
) -> PacketRow:
    """The row of ``packet``'s outcome at ``receiver`` on hop ``sender``:
    one record, or one per node when ``receiver`` is a tuple (a 1-tuple
    is stored as its node).  ``t_receipt`` and ``t_forward`` stamp a
    packet that does not carry those times yet."""
    if type(receiver) is tuple and len(receiver) == 1:
        receiver = receiver[0]
    if receiver is not None and type(receiver) is not tuple:
        receiver = int(receiver)
    return (
        int(packet.seqno), int(packet.source), int(packet.destination),
        int(sender), receiver, int(packet.channel), packet.kind,
        packet.size_bits, packet.t_origin,
        packet.t_receipt if t_receipt is None else t_receipt,
        packet.t_forward if t_forward is None else t_forward,
        packet.t_delivered, drop_reason,
    )


class PacketStamper:
    """Allocates per-sender sequence numbers and origin time-stamps.

    Lives in the **client** (one per VMN).  Thread-safe because on the
    real-time stack the receiver thread (protocol timers and relays) and
    application threads both transmit.
    """

    def __init__(self, node: NodeId) -> None:
        self.node = node
        self._seq = itertools.count(1)
        self._lock = threading.Lock()

    def next_seqno(self) -> SequenceNumber:
        with self._lock:
            return SequenceNumber(next(self._seq))

    def make_packet(
        self,
        destination: NodeId,
        payload: bytes,
        *,
        channel: ChannelId,
        radio: RadioIndex = RadioIndex(0),
        kind: str = "data",
        size_bits: Optional[int] = None,
        t_origin: Optional[float] = None,
    ) -> Packet:
        """Build an origin-stamped packet from this node.

        ``size_bits`` defaults to the payload's wire size; protocols that
        emulate larger frames (e.g. the 4 Mbps CBR workload uses sizeable
        frames without materializing megabytes of payload) pass it
        explicitly.
        """
        if size_bits is None:
            size_bits = max(1, len(payload) * 8)
        return Packet(
            source=self.node,
            destination=destination,
            payload=payload,
            size_bits=size_bits,
            seqno=self.next_seqno(),
            channel=channel,
            radio=radio,
            kind=kind,
            t_origin=t_origin,
        )
