"""Emulation clocks and the lightweight clock-synchronization scheme.

The paper (§4.1, Fig 5) makes *parallel time-stamping* in the clients work
by synchronizing each client's emulation clock to the server clock with a
six-step exchange:

1. client sends a message recording its local time ``t_c1``;
2. server receives it at server time ``t_s2``;
3. at server time ``t_s3`` the server replies with ``t_s3`` and
   ``t_c1 + t_s3 - t_s2``;
4. client receives the reply at local time ``t_c4``;
5. assuming symmetric transport delay, the client computes
   ``t_d = 0.5 * (t_c4 - (t_c1 + t_s3 - t_s2))`` and estimates the current
   server clock as ``t_s4 = t_s3 + t_d``;
6. the client adopts ``t_s4`` as the current emulation time.

This module provides the two clock sources (``RealTimeClock`` for the
paper-faithful threaded deployment, ``VirtualClock`` for deterministic
discrete-event runs — see DESIGN.md §2), a ``SynchronizedClock`` adapter
holding the offset learned from the exchange, and pure functions that
implement the exchange itself so it can be property-tested in isolation and
reused over both real TCP and the virtual transport.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import ClockError

__all__ = [
    "EmulationClock",
    "RealTimeClock",
    "VirtualClock",
    "SynchronizedClock",
    "ScheduledCall",
    "SyncRequest",
    "SyncReply",
    "make_sync_request",
    "make_sync_reply",
    "estimate_offset",
    "SyncResult",
    "SyncSample",
]


class EmulationClock(ABC):
    """Source of emulation time (seconds, float)."""

    @abstractmethod
    def now(self) -> float:
        """Current emulation time."""


class RealTimeClock(EmulationClock):
    """Wall-clock emulation time, anchored at construction.

    ``now()`` is the number of wall seconds since the clock (or its epoch)
    was created, from the monotonic system clock — immune to NTP jumps,
    matching how a long-running emulation server should keep time.
    """

    def __init__(self, epoch: Optional[float] = None) -> None:
        self._epoch = time.monotonic() if epoch is None else epoch

    @property
    def epoch(self) -> float:
        return self._epoch

    def now(self) -> float:
        return time.monotonic() - self._epoch

    def sleep_until(self, t: float) -> None:
        """Block until emulation time ``t`` (returns immediately if past)."""
        remaining = t - self.now()
        if remaining > 0:
            time.sleep(remaining)


@dataclass(frozen=True, slots=True)
class ScheduledCall:
    """Handle to a callback scheduled on a :class:`VirtualClock`."""

    when: float
    seq: int

    # Cancellation is cooperative: the clock checks the flag holder.


class VirtualClock(EmulationClock):
    """Deterministic discrete-event clock.

    Time only moves when the owner runs the event loop.  Callbacks are
    executed in ``(when, insertion-order)`` order, which makes every run
    bit-for-bit reproducible — the property the paper's lab deployment
    could not offer and that our test suite depends on.

    Not thread-safe by design: all virtual-time components run on one
    thread.  The real-time stack uses :class:`RealTimeClock` plus OS
    threads instead.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._cancelled: set[int] = set()
        # Key of the last entry popped.  Entries leave the heap in strictly
        # increasing (when, seq) order, so this alone tells a handle that
        # already ran from a queued one.
        self._popped: tuple[float, int] = (float("-inf"), -1)

    def now(self) -> float:
        return self._now

    def call_at(self, when: float, fn: Callable[[], None]) -> ScheduledCall:
        """Schedule ``fn`` to run at virtual time ``when``.

        Scheduling at the current time is allowed (the callback runs on the
        next loop step); scheduling in the past is an error because it
        would silently reorder causality, and so is NaN, which compares
        below nothing and would stall the queue.
        """
        if not when >= self._now:
            raise ClockError(
                f"cannot schedule at t={when} (virtual clock already at {self._now})"
            )
        seq = next(self._seq)
        heapq.heappush(self._heap, (when, seq, fn))
        return ScheduledCall(when, seq)

    def call_after(self, delay: float, fn: Callable[[], None]) -> ScheduledCall:
        """Schedule ``fn`` to run ``delay`` seconds from now."""
        if not delay >= 0:
            raise ClockError(f"negative or NaN delay: {delay}")
        return self.call_at(self._now + delay, fn)

    def cancel(self, handle: ScheduledCall) -> None:
        """Cancel a scheduled call (no-op if it already ran)."""
        if (handle.when, handle.seq) > self._popped:
            self._cancelled.add(handle.seq)

    def pending(self) -> int:
        """Number of callbacks still queued and not cancelled."""
        return len(self._heap) - len(self._cancelled)

    def next_event_time(self) -> Optional[float]:
        """Time of the earliest queued callback, or ``None`` if idle."""
        return self._heap[0][0] if self._heap else None

    def step(self, deadline: float = float("inf")) -> bool:
        """Run the single earliest callback; return False if none is
        queued at or before ``deadline``."""
        while self._heap and self._heap[0][0] <= deadline:
            when, seq, fn = heapq.heappop(self._heap)
            self._popped = (when, seq)
            if seq in self._cancelled:
                self._cancelled.discard(seq)
                continue
            self._now = when
            fn()
            return True
        return False

    def run_until(self, deadline: float) -> None:
        """Run all callbacks with ``when <= deadline``; end at ``deadline``.

        The clock finishes exactly at ``deadline`` even if the queue drains
        early, so periodic processes observe a consistent end time.
        """
        if not deadline >= self._now:
            raise ClockError(
                f"deadline {deadline} is before current time {self._now}"
            )
        while self.step(deadline):
            pass
        self._now = deadline

    def run(self, max_events: int = 1_000_000) -> int:
        """Run until the queue drains; return the number of events run.

        ``max_events`` bounds runaway feedback loops (e.g. a protocol that
        reschedules itself at the current instant forever).
        """
        count = 0
        while self.step():
            count += 1
            if count >= max_events:
                raise ClockError(f"event loop exceeded {max_events} events")
        return count


class SynchronizedClock(EmulationClock):
    """A client-side clock slaved to the server clock by a learned offset.

    ``now()`` returns ``local.now() + offset`` where ``offset`` is the
    output of the §4.1 exchange.  The offset may be re-learned at any time
    (the paper leaves the resynchronization frequency to the user).
    """

    def __init__(self, local: EmulationClock, offset: float = 0.0) -> None:
        self._local = local
        self._offset = offset
        self._lock = threading.Lock()

    @property
    def offset(self) -> float:
        with self._lock:
            return self._offset

    def set_offset(self, offset: float) -> None:
        with self._lock:
            self._offset = offset

    def now(self) -> float:
        with self._lock:
            return self._local.now() + self._offset


# ---------------------------------------------------------------------------
# The six-step exchange, as pure data + functions (transport-agnostic).
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SyncRequest:
    """Step 1: the client's message carrying its local send time ``t_c1``."""

    t_c1: float


@dataclass(frozen=True, slots=True)
class SyncReply:
    """Step 3: the server's reply carrying ``t_s3`` and ``t_c1+t_s3-t_s2``."""

    t_s3: float
    echo: float  # == t_c1 + t_s3 - t_s2


@dataclass(frozen=True, slots=True)
class SyncResult:
    """Outcome of one exchange, evaluated at the client (steps 5–6)."""

    offset: float
    """Estimated ``server_clock - client_clock``."""

    round_trip_delay: float
    """Estimated one-way transport delay ``t_d`` (half the processed RTT)."""

    t_s4: float
    """Estimated current server time at the instant the reply arrived."""


@dataclass(frozen=True, slots=True)
class SyncSample:
    """One recorded §4.1 exchange, as logged by the recorder's
    ``sync_samples`` table (the forensics plane's clock-audit input).

    The paper leaves resynchronization frequency to the user but says
    nothing about *auditing* the sync afterwards; recording every
    exchange lets post-emulation analysis estimate per-client clock
    drift and skew-correct client stamps (see
    :mod:`repro.analysis.drift`).
    """

    node: int
    """The VMN this client registered as (``-1`` before registration)."""

    label: str
    """The client's registration label (empty when unlabelled)."""

    offset: float
    """Estimated ``server_clock − client_local_clock`` (§4.1 output).

    Successive samples from the same client reveal local-clock drift:
    ``d(offset)/d(t_server)`` is the drift rate of the client's stamp
    clock relative to the server."""

    delay: float
    """Estimated one-way transport delay of the exchange (the error
    bound: offset error ≤ half the delay asymmetry)."""

    t_server: float
    """Server-clock time of the exchange (the client's ``t_s4``
    estimate on the TCP stack; the emulator clock on the virtual one)."""

    t_client: float
    """Client-local time when the exchange completed (``t_c4``)."""

    cause: str = "register"
    """``register``, ``reconnect`` or ``resync`` — which lifecycle step
    ran the exchange."""

    residual: float = 0.0
    """Known stamp-clock error ``server − stamp`` at sample time.

    Zero on the TCP stack (the sync just corrected it; only drift can
    be estimated).  On the virtual stack the modelled ``clock_offset``
    is the residual by construction, so it is recorded exactly and
    lineage correction is exact."""

    def as_dict(self) -> dict:
        return {
            "node": self.node,
            "label": self.label,
            "offset": self.offset,
            "delay": self.delay,
            "t_server": self.t_server,
            "t_client": self.t_client,
            "cause": self.cause,
            "residual": self.residual,
        }


def make_sync_request(client_clock: EmulationClock) -> SyncRequest:
    """Step 1 at the client: stamp and emit the request."""
    return SyncRequest(t_c1=client_clock.now())


def make_sync_reply(
    request: SyncRequest, t_s2: float, t_s3: Optional[float] = None
) -> SyncReply:
    """Steps 2–3 at the server.

    ``t_s2`` is the server receive time; ``t_s3`` the server send time
    (defaults to ``t_s2``, i.e. an immediate reply).  The server's
    processing time ``t_s3 - t_s2`` is *subtracted out* by the echo term,
    which is the scheme's whole trick: only transport delay asymmetry
    remains as error.
    """
    if t_s3 is None:
        t_s3 = t_s2
    if t_s3 < t_s2:
        raise ClockError(f"server reply time {t_s3} precedes receive time {t_s2}")
    return SyncReply(t_s3=t_s3, echo=request.t_c1 + t_s3 - t_s2)


def estimate_offset(reply: SyncReply, t_c4: float) -> SyncResult:
    """Steps 5–6 at the client: estimate delay, server time, and offset.

    With symmetric transport delay the estimate is exact.  With one-way
    delays ``d_up`` (client→server) and ``d_down`` (server→client) the
    offset error is ``(d_down - d_up) / 2`` — bounded by half the
    asymmetry, the classic Cristian-style bound (property-tested in
    ``tests/core/test_clock.py``).
    """
    t_d = 0.5 * (t_c4 - reply.echo)
    if t_d < 0:
        if t_d > -1e-9:
            t_d = 0.0  # float rounding of the echo arithmetic
        else:
            # A genuinely negative processed RTT means inputs were mixed
            # up (or clocks jumped mid-exchange); fail loudly.
            raise ClockError(f"negative estimated transport delay: {t_d}")
    t_s4 = reply.t_s3 + t_d
    return SyncResult(offset=t_s4 - t_c4, round_trip_delay=t_d, t_s4=t_s4)
