"""The routing-protocol host API.

PoEm's promise is that "implementations of protocols and services will be
tested and evaluated without any conversion and modification" (§1) —
protocols are embedded in the emulation clients (§3.3) and neither know
nor care whether frames travel over real TCP to a central server or
through the in-process virtual-time emulator.

A :class:`RoutingProtocol` talks to the world only through a
:class:`ProtocolHost`:

* identity and radio inventory (which channels can I transmit on?),
* the synchronized emulation clock,
* ``transmit`` — hand a frame to the medium (client stamps it and ships it
  to the server),
* timers — periodic HELLOs, route timeouts, retry backoff,
* an application upcall for data packets that terminate at this node.

Both deployment stacks implement this interface: the real-time TCP client
(:class:`repro.core.client.PoEmClient`) and the per-VMN hosts of the
virtual-time emulator (:class:`repro.core.server.InProcessEmulator`).
A protocol binary therefore runs *unmodified* on either — the paper's
point, kept testable.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Optional

from ..core.clock import VirtualClock
from ..core.ids import BROADCAST_NODE, ChannelId, NodeId
from ..core.packet import Packet
from ..errors import ProtocolError

__all__ = [
    "TimerHandle",
    "TimerService",
    "VirtualTimerService",
    "ProtocolHost",
    "RoutingProtocol",
    "AppDeliverFn",
]

AppDeliverFn = Callable[[Packet], None]


@dataclass(frozen=True)
class TimerHandle:
    """Opaque handle to a pending timer."""

    key: object


class TimerService(ABC):
    """Deadline callbacks, virtual or wall-clock."""

    @abstractmethod
    def call_after(self, delay: float, fn: Callable[[], None]) -> TimerHandle:
        """Run ``fn`` once after ``delay`` seconds of emulation time."""

    @abstractmethod
    def cancel(self, handle: TimerHandle) -> None:
        """Cancel a pending timer (no-op if already fired)."""

    @abstractmethod
    def cancel_all(self) -> None:
        """Cancel everything (protocol shutdown)."""


class VirtualTimerService(TimerService):
    """Timers on a :class:`VirtualClock` (deterministic stack)."""

    def __init__(self, clock: VirtualClock) -> None:
        self._clock = clock
        self._handles: set = set()

    def call_after(self, delay: float, fn: Callable[[], None]) -> TimerHandle:
        def wrapper() -> None:
            self._handles.discard(call)
            fn()

        call = self._clock.call_after(delay, wrapper)
        self._handles.add(call)
        return TimerHandle(call)

    def cancel(self, handle: TimerHandle) -> None:
        call = handle.key
        if call in self._handles:
            self._handles.discard(call)
            self._clock.cancel(call)

    def cancel_all(self) -> None:
        for call in list(self._handles):
            self._clock.cancel(call)
        self._handles.clear()


class ProtocolHost(ABC):
    """Everything a routing protocol may touch."""

    @property
    @abstractmethod
    def node_id(self) -> NodeId:
        """This VMN's identity."""

    @abstractmethod
    def channels(self) -> frozenset[ChannelId]:
        """Channels this node currently has a radio on (``CS(self)``)."""

    @abstractmethod
    def now(self) -> float:
        """Synchronized emulation time (drives all protocol timing)."""

    @abstractmethod
    def transmit(
        self,
        destination: NodeId,
        payload: bytes,
        *,
        channel: ChannelId,
        kind: str = "data",
        size_bits: Optional[int] = None,
    ) -> Packet:
        """Send a frame on ``channel``; returns the stamped packet.

        ``destination = BROADCAST_NODE`` reaches all current neighbors on
        the channel.  Raises :class:`ProtocolError` if the node has no
        radio on ``channel``.
        """

    @abstractmethod
    def timers(self) -> TimerService:
        """Timer facility for periodic/one-shot protocol events."""

    @abstractmethod
    def deliver_to_app(self, packet: Packet) -> None:
        """Hand a data packet that terminates here up to the application."""

    def broadcast(
        self,
        payload: bytes,
        *,
        channel: ChannelId,
        kind: str = "control",
        size_bits: Optional[int] = None,
    ) -> Packet:
        """Convenience: transmit to all neighbors on ``channel``."""
        return self.transmit(
            BROADCAST_NODE, payload, channel=channel, kind=kind,
            size_bits=size_bits,
        )


class RoutingProtocol(ABC):
    """Base class of the real protocol implementations under test.

    Lifecycle: ``start(host)`` → any number of ``on_packet`` / ``send_data``
    / timer callbacks → ``stop()``.  On the real-time stack ``on_packet``
    and timer callbacks run on the client's receiver thread while
    application threads call ``send_data`` and ``route_summary``, so the
    bundled protocols serialize on a per-instance lock.
    """

    def __init__(self) -> None:
        self.host: Optional[ProtocolHost] = None

    def start(self, host: ProtocolHost) -> None:
        """Bind to a host and begin operating (arm timers, say HELLO)."""
        if self.host is not None:
            raise ProtocolError(f"{type(self).__name__} already started")
        self.host = host
        self.on_start()

    def stop(self) -> None:
        """Disarm and unbind."""
        if self.host is None:
            return
        self.on_stop()
        self.host.timers().cancel_all()
        self.host = None

    def _require_host(self) -> ProtocolHost:
        if self.host is None:
            raise ProtocolError(f"{type(self).__name__} is not started")
        return self.host

    # -- hooks for implementations -------------------------------------------

    def on_start(self) -> None:
        """Called once after the host is bound."""

    def on_stop(self) -> None:
        """Called once before the host is unbound."""

    @abstractmethod
    def on_packet(self, packet: Packet) -> None:
        """A frame arrived from the medium (control or relayed data)."""

    @abstractmethod
    def send_data(self, destination: NodeId, payload: bytes,
                  size_bits: Optional[int] = None) -> bool:
        """Application wants ``payload`` delivered to ``destination``.

        Returns True if the protocol could send (or queue) it, False if it
        has no route and cannot obtain one right now.
        """

    @abstractmethod
    def route_summary(self) -> list[str]:
        """Human-readable routing entries, ``"1 -> 3 -> 2"`` style.

        This is what the paper's Table 2 prints when "inspecting the
        routing table in VMN1 in real time".
        """
