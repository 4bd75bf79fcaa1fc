"""The forwarding schedule (§3.2 Steps 4–6).

After the scheduling thread computes ``t_forward`` for each (packet,
receiver) pair, the frame is "listed into the schedule" — one entry per
run of receivers that share a forward time; a scanning thread
"keeps watching the schedule and initiates a sending thread once the
emulation clock meets the time to forward".

:class:`ForwardSchedule` is that schedule: a thread-safe priority queue
ordered by ``t_forward`` with FIFO tie-breaking (two packets scheduled for
the same instant leave in arrival order — keeps CBR streams in order).  It
supports both deployment styles:

* the **real-time** server's loop sleeps in :meth:`wait_ready` — one
  ``select`` over its sockets with the head deadline as the timeout —
  and harvests with :meth:`wait_due`;
* the **virtual-time** emulator polls :meth:`pop_due` from clock callbacks.

A configurable ``capacity`` models the server's finite buffering; pushes
beyond it are rejected so the engine records a ``queue-overflow`` drop
(§2.1's "bounded by the server processing power" made observable).
"""

from __future__ import annotations

import heapq
import itertools
import select
import threading
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import SchedulerError
from .ids import NodeId
from .packet import Packet

__all__ = ["ScheduledPacket", "ForwardSchedule", "take_pairs"]


@dataclass(frozen=True, slots=True)
class ScheduledPacket:
    """One fan-out group awaiting its forward time: ``packet`` leaves for
    every node of ``receivers`` at ``t_forward``.

    A group is a run of consecutive (packet, receiver) pairs of one
    ingest that share a forward time, so the schedule lists a frame once,
    not once per receiver.  ``sender`` is the node that transmitted this
    hop's frame (it differs from ``packet.source`` on relayed hops) — the
    packet log records both.  ``packet`` is the frame as received: its
    ``t_receipt`` rides here, beside ``t_forward``, until delivery.
    """

    t_forward: float
    packet: Packet
    receivers: tuple[NodeId, ...]
    sender: NodeId
    t_receipt: Optional[float] = None


def take_pairs(
    entries: Sequence[ScheduledPacket], n: int
) -> list[ScheduledPacket]:
    """The leading groups of ``entries`` that hold exactly their first
    ``n`` (packet, receiver) pairs, the last group split if need be."""
    taken: list[ScheduledPacket] = []
    for entry in entries:
        k = len(entry.receivers)
        if n >= k:
            taken.append(entry)
            n -= k
            continue
        if n > 0:
            taken.append(
                ScheduledPacket(
                    entry.t_forward, entry.packet, entry.receivers[:n],
                    entry.sender, entry.t_receipt,
                )
            )
        break
    return taken


class ForwardSchedule:
    """Priority queue of :class:`ScheduledPacket`, ordered by forward time.

    ``len()``, ``capacity`` and the accepted/rejected counters count
    (packet, receiver) pairs, not entries: a group of ``k`` receivers
    occupies ``k`` units of the server's buffering.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise SchedulerError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._heap: list[tuple[float, int, ScheduledPacket]] = []
        self._pairs = 0  # (packet, receiver) pairs over every heap entry
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._closed = False
        self._oversleep = 0.0  # lateness of wait_ready's last timed wake-up
        # Optional telemetry hooks (see bind_telemetry); None keeps the
        # hot path at two attribute loads + an `is not None` check.
        self._m_accepted = None
        self._m_rejected = None

    def bind_telemetry(self, registry) -> None:
        """Register schedule metrics on an obs registry.

        * ``poem_schedule_accepted_total`` / ``poem_schedule_rejected_total``
          — push outcomes in pairs (rejected == queue-overflow drops
          upstream);
        * ``poem_schedule_depth`` — a callback gauge over ``len(self)``,
          sampled only when scraped (zero hot-path cost).
        """
        self._m_accepted = registry.counter(
            "poem_schedule_accepted_total",
            "(packet, receiver) pairs accepted into the forwarding schedule",
        )
        self._m_rejected = registry.counter(
            "poem_schedule_rejected_total",
            "(packet, receiver) pairs rejected by the schedule capacity bound",
        )
        registry.gauge_fn(
            "poem_schedule_depth",
            "Current number of (packet, receiver) pairs awaiting their "
            "forward time",
            lambda: len(self),
        )

    def __len__(self) -> int:
        with self._lock:
            return self._pairs

    @property
    def capacity(self) -> Optional[int]:
        return self._capacity

    def push(self, entry: ScheduledPacket) -> bool:
        """Enqueue one entry; False when the capacity bound rejected any
        of its pairs (see :meth:`push_many`)."""
        return self.push_many((entry,)) == len(entry.receivers)

    def push_many(self, entries: Sequence[ScheduledPacket]) -> int:
        """Enqueue a batch under **one** lock acquisition (hot path).

        Accepts the batch's pairs up to the remaining capacity — a
        prefix, the last group split where the bound falls — and returns
        how many pairs were accepted; callers record the rest as
        queue-overflow drops.
        """
        if not entries:
            return 0
        offered = 0
        for entry in entries:
            offered += len(entry.receivers)
        with self._lock:
            if self._closed:
                raise SchedulerError("schedule is closed")
            accepted = offered
            if self._capacity is not None:
                room = self._capacity - self._pairs
                if room < offered:
                    accepted = max(room, 0)
                    entries = take_pairs(entries, accepted)
            heap, seq = self._heap, self._seq
            for entry in entries:
                heapq.heappush(heap, (entry.t_forward, next(seq), entry))
            self._pairs += accepted
        if self._m_accepted is not None:
            if accepted:
                self._m_accepted.inc(accepted)
            if accepted < offered:
                self._m_rejected.inc(offered - accepted)
        return accepted

    def peek_time(self) -> Optional[float]:
        """Forward time of the head entry (None when empty)."""
        with self._lock:
            return self._heap[0][0] if self._heap else None

    def pop_due(self, now: float) -> list[ScheduledPacket]:
        """Remove and return every entry with ``t_forward <= now``, in order."""
        due: list[ScheduledPacket] = []
        with self._lock:
            heap = self._heap
            pairs = 0
            while heap and heap[0][0] <= now:
                entry = heapq.heappop(heap)[2]
                pairs += len(entry.receivers)
                due.append(entry)
            self._pairs -= pairs
        return due

    #: Precision quantum (s) of the real-time deployment: the longest
    #: stretch before a deadline that :meth:`wait_ready` polls across
    #: instead of sleeping.
    SPIN_WAIT = 0.0002

    def wait_due(self, now: float) -> list[ScheduledPacket]:
        """Real-time harvest: every entry due at ``now``, in order; none
        is ever harvested before its deadline.

        Never blocks; the waiting is :meth:`wait_ready`'s.  It keeps its
        own name beside :meth:`pop_due` because it is the boundary the
        end-to-end benchmark times harvest lag at.
        """
        return self.pop_due(now)

    def wait_ready(
        self,
        now: float,
        max_wait: float,
        rlist: Sequence = (),
        wlist: Sequence = (),
    ) -> tuple[list, list]:
        """Real-time wait: sleep until the head entry falls due, a socket
        of ``rlist`` / ``wlist`` is ready, or ``max_wait`` seconds passed,
        whichever is first.  Returns the (readable, writable) sockets.

        ``now`` is the emulation clock at the instant of the call.  One
        ``select.select`` does all three jobs: its timeout has microsecond
        resolution (``poll``/``epoll``/``selectors`` round up to whole
        milliseconds), and a frame arriving earlier cuts the sleep short.
        A timed-out select wakes late by the host's timer latency (tens
        of µs on metal, ~200 in a VM), so a wait that a deadline ends
        sleeps short by what the last such wake-up overslept — at most
        one :data:`SPIN_WAIT` — and polls across the rest.  With
        something already due the call polls the sockets once.  A closed
        schedule still waits: its owner wakes the select through a socket.
        """
        head = self.peek_time()
        if head is None or head - now >= max_wait:
            readable, writable, _ = select.select(
                rlist, wlist, (), max(max_wait, 0.0)
            )
            return readable, writable
        start = time.monotonic()
        due_at = start + (head - now)
        timeout = head - now - min(self._oversleep, self.SPIN_WAIT)
        if timeout > 0.0:
            readable, writable, _ = select.select(rlist, wlist, (), timeout)
            if readable or writable:
                return readable, writable
            self._oversleep = time.monotonic() - start - timeout
        while True:
            readable, writable, _ = select.select(rlist, wlist, (), 0.0)
            if readable or writable or time.monotonic() >= due_at:
                return readable, writable

    def drain(self) -> list[ScheduledPacket]:
        """Remove and return everything (shutdown path), in order."""
        with self._lock:
            out = [heapq.heappop(self._heap)[2] for _ in range(len(self._heap))]
            self._pairs = 0
            return out

    def close(self) -> None:
        """Refuse further pushes."""
        with self._lock:
            self._closed = True
