"""Correctness checks shared by the workloads.

A workload hands over what the program produced (packet records,
delivered packets) together with what it was given; each function returns
the number of operations that came out wrong plus a few example messages.
A faster program that delivers the wrong thing must not score.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable, Optional, Sequence

from inputs import payload_seq

#: The link model must be reproduced to the nanosecond.
STAMP_TOL = 1e-9


class Problems:
    """Failure count with the first few messages kept for the report."""

    def __init__(self, keep: int = 5) -> None:
        self.count = 0
        self.examples: list[str] = []
        self._keep = keep

    def add(self, message: str, n: int = 1) -> None:
        self.count += n
        if len(self.examples) < self._keep:
            self.examples.append(message)


def check_stamps(
    t_origin: Optional[float],
    t_receipt: Optional[float],
    t_forward: Optional[float],
    t_delivered: Optional[float],
    link_delay: float,
    *,
    exact_delivery: bool,
) -> Optional[str]:
    """Stamps monotone, ``t_forward − t_receipt`` equal to the link model
    within 1 ns and — on the virtual clock — delivery exactly at the
    forward time (scheduler lag ≡ 0).  Returns a message or None."""
    if t_origin is None or t_receipt is None or t_forward is None:
        return "missing stamp"
    if not t_origin <= t_receipt <= t_forward:
        return f"stamp order {t_origin} {t_receipt} {t_forward}"
    if abs((t_forward - t_receipt) - link_delay) > STAMP_TOL:
        return f"link delay {t_forward - t_receipt!r} != {link_delay!r}"
    if t_delivered is not None:
        if t_delivered < t_forward:
            return f"delivered {t_delivered} before forward {t_forward}"
        if exact_delivery and t_delivered != t_forward:
            return f"virtual-clock lag {t_delivered - t_forward!r} != 0"
    return None


def check_records(
    records: Sequence,
    *,
    link_delay: float,
    neighbors: Optional[Sequence[frozenset[int]]],
    node_index: dict[int, int],
    allowed_drops: frozenset[str],
) -> Problems:
    """Virtual-clock record checks.

    Every ``(source, seqno, receiver)`` outcome appears once, carries
    consistent stamps and an allowed drop reason; with ``neighbors`` (the
    static meshes) every frame produced exactly one outcome per
    independently computed neighbor of its sender.
    """
    problems = Problems()
    seen: set[tuple[int, int, int]] = set()
    per_frame: dict[tuple[int, int], int] = {}
    for rec in records:
        if rec.receiver is None:
            problems.add(f"frame-level drop {rec.drop_reason} of {rec.source}/{rec.seqno}")
            continue
        key = (rec.source, rec.seqno, rec.receiver)
        if key in seen:
            problems.add(f"duplicate outcome {key}")
            continue
        seen.add(key)
        if rec.drop_reason is not None and rec.drop_reason not in allowed_drops:
            problems.add(f"unexpected drop {rec.drop_reason} for {key}")
            continue
        if rec.dropped:
            # Lost before scheduling: the record carries no forward time.
            ok = (
                rec.t_origin is not None
                and rec.t_receipt is not None
                and rec.t_origin <= rec.t_receipt
                and rec.t_delivered is None
            )
            message = None if ok else "bad stamps on a dropped record"
        elif rec.t_delivered is None:
            message = "delivered record without t_delivered"
        else:
            message = check_stamps(
                rec.t_origin, rec.t_receipt, rec.t_forward,
                rec.t_delivered, link_delay, exact_delivery=True,
            )
        if message is not None:
            problems.add(f"{key}: {message}")
            continue
        if neighbors is not None:
            if node_index[rec.receiver] not in neighbors[node_index[rec.sender]]:
                problems.add(f"{key}: receiver is not a neighbor")
                continue
            frame = (rec.source, rec.seqno)
            per_frame[frame] = per_frame.get(frame, 0) + 1
    if neighbors is not None:
        for (source, seqno), n in per_frame.items():
            want = len(neighbors[node_index[source]])
            if n != want:
                problems.add(
                    f"frame {source}/{seqno}: {n} outcomes, {want} neighbors",
                    abs(n - want),
                )
    return problems


def check_flow(
    packets: Iterable,
    expected: Callable[[int], bytes],
    *,
    first_seq: int,
    count: int,
) -> tuple[Problems, list[int]]:
    """One unicast flow as its receiver saw it: payloads ``first_seq`` to
    ``first_seq + count - 1`` each exactly once, in order, bytes intact
    (``expected(seq)`` regenerates what was sent).  Returns the problems
    and, per received packet in arrival order, its sequence number (-1
    for one that is not part of the flow)."""
    problems = Problems()
    order: list[int] = []
    seen: set[int] = set()
    last = first_seq - 1
    for packet in packets:
        data = packet.payload
        seq = payload_seq(data) if len(data) >= 8 else -1
        if not first_seq <= seq < first_seq + count:
            problems.add(f"unknown sequence number {seq}")
            order.append(-1)
            continue
        if seq in seen:
            problems.add(f"duplicate delivery of {seq}")
            order.append(-1)
            continue
        seen.add(seq)
        order.append(seq)
        if data != expected(seq):
            problems.add(f"payload of {seq} corrupted")
        elif seq < last:
            problems.add(f"{seq} delivered after {last}")
        last = max(last, seq)
    missing = count - len(seen)
    if missing:
        problems.add(f"{missing} payloads never delivered", missing)
    return problems, order


def record_tuple(rec) -> tuple:
    """A record without its ``record_id``, times rounded to 1 ns (-1 for
    a stamp that was never set, so tuples always compare)."""

    def ns(t):
        return -1 if t is None else round(t * 1e9)

    return (
        rec.source, rec.seqno, rec.destination, rec.sender,
        -1 if rec.receiver is None else rec.receiver,
        rec.channel, rec.kind, rec.size_bits,
        ns(rec.t_origin), ns(rec.t_receipt), ns(rec.t_forward),
        ns(rec.t_delivered), rec.drop_reason or "",
    )


def records_digest(records: Iterable) -> str:
    """sha256 over the sorted record tuples: equal digests mean two runs
    produced the same multiset of outcomes."""
    h = hashlib.sha256()
    for row in sorted(record_tuple(r) for r in records):
        h.update(repr(row).encode())
    return h.hexdigest()
