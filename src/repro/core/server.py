"""The PoEm emulation server, in both deployment styles.

:class:`InProcessEmulator` runs the whole client/server structure inside
one process on a :class:`~repro.core.clock.VirtualClock`: every VMN gets a
:class:`VirtualNodeHost` (the client), frames flow through the same
:class:`~repro.core.engine.ForwardingEngine` pipeline the TCP server uses,
and time advances deterministically.  This is the test/benchmark stack —
and also a perfectly usable headless emulator for scripted scenarios.

:class:`PoEmServer` (in :mod:`repro.core.tcpserver`) is the paper-faithful
deployment: a TCP server workstations connect to.  Both, like the
sharded cluster's shard workers, are shells around one
:class:`~repro.core.forwarding.ForwardingCore` — scene, neighbor
tables, engine, recorder, overload controller, run summary — and differ
only in clocks and transports (DESIGN.md §2).

Client-side imperfections are first-class here because the paper's whole
§2 argument is about them: each virtual host can be given a **clock
offset** (imperfect synchronization) and **uplink/downlink latencies**
(the LAN between client and server), which the Fig 2 / Fig 5 benches
dial.
"""

from __future__ import annotations

import time as _time_mod
from typing import Callable, Optional

import numpy as np

from ..errors import ProtocolError, SceneError
from ..models.mobility import Bounds
from ..models.radio import RadioConfig
from ..net.virtual import LatencySpec
from ..obs.telemetry import Telemetry
from ..protocols.base import (
    ProtocolHost,
    RoutingProtocol,
    TimerService,
    VirtualTimerService,
)
from .clock import SyncSample, VirtualClock
from .forwarding import ForwardingCore, release_profiler, virtual_clients
from .geometry import Vec2
from .ids import ChannelId, IdAllocator, NodeId
from .overload import DEFAULT_LAG_BUDGET
from .packet import Packet, PacketStamper
from .recording import Recorder

__all__ = ["VirtualNodeHost", "InProcessEmulator"]


class VirtualNodeHost(ProtocolHost):
    """One emulation client of the in-process stack.

    Implements the full :class:`ProtocolHost` contract, so any
    :class:`RoutingProtocol` runs here unmodified — identical to running
    on the TCP client.
    """

    def __init__(
        self,
        emulator: "InProcessEmulator",
        node_id: NodeId,
        *,
        clock_offset: float = 0.0,
        uplink: Optional[LatencySpec] = None,
        downlink: Optional[LatencySpec] = None,
    ) -> None:
        self._emulator = emulator
        self._node_id = node_id
        self.clock_offset = clock_offset
        self.uplink = uplink or LatencySpec(base=0.0)
        self.downlink = downlink or LatencySpec(base=0.0)
        self._stamper = PacketStamper(node_id)
        self._timers = VirtualTimerService(emulator.clock)
        self.protocol: Optional[RoutingProtocol] = None
        self.received: list[Packet] = []
        self.app_received: list[Packet] = []
        self.on_app_packet: Optional[Callable[[Packet], None]] = None
        self._rng = np.random.default_rng(int(node_id) * 7919 + 13)

    # -- ProtocolHost ----------------------------------------------------------

    @property
    def node_id(self) -> NodeId:
        return self._node_id

    def channels(self) -> frozenset[ChannelId]:
        if self._node_id not in self._emulator.scene:
            return frozenset()  # node was removed mid-run
        return self._emulator.scene.channels_of(self._node_id)

    def now(self) -> float:
        """The client's synchronized emulation clock (offset models the
        residual sync error of §4.1)."""
        now = self._emulator.clock.now()
        return now + self.clock_offset if self.clock_offset else now

    def transmit(
        self,
        destination: NodeId,
        payload: bytes,
        *,
        channel: ChannelId,
        kind: str = "data",
        size_bits: Optional[int] = None,
    ) -> Packet:
        if channel not in self.channels():
            raise ProtocolError(
                f"node {self._node_id} has no radio on channel {channel}"
            )
        packet = self._stamper.make_packet(
            destination,
            payload,
            channel=channel,
            kind=kind,
            size_bits=size_bits,
            t_origin=self.now(),  # parallel time-stamping, at the client
        )
        self._emulator._client_transmit(self, packet)
        return packet

    def timers(self) -> TimerService:
        return self._timers

    def deliver_to_app(self, packet: Packet) -> None:
        self.app_received.append(packet)
        if self.on_app_packet is not None:
            self.on_app_packet(packet)

    # -- emulator-side delivery ---------------------------------------------------

    def _arrive(self, packet: Packet) -> None:
        self.received.append(packet)
        if self.protocol is not None:
            self.protocol.on_packet(packet)
        elif self.on_app_packet is not None:
            self.on_app_packet(packet)

    def attach_protocol(self, protocol: RoutingProtocol) -> None:
        """Embed a routing protocol in this client and start it."""
        if self.protocol is not None:
            raise ProtocolError(f"node {self._node_id} already runs a protocol")
        self.protocol = protocol
        protocol.start(self)

    def detach_protocol(self) -> None:
        if self.protocol is not None:
            self.protocol.stop()
            self.protocol = None


class InProcessEmulator(ForwardingCore):
    """The whole PoEm client/server structure on one virtual clock."""

    clock: VirtualClock

    def __init__(
        self,
        *,
        seed: Optional[int] = 0,
        bounds: Optional[Bounds] = None,
        recorder: Optional[Recorder] = None,
        schedule_capacity: Optional[int] = None,
        mac=None,
        energy=None,
        telemetry: Optional[Telemetry] = None,
        lag_budget: float = DEFAULT_LAG_BUDGET,
        profile_hz: Optional[float] = None,
    ) -> None:
        # Virtual-clock runs fire exactly at t_forward, so the overload
        # controller normally stays NOMINAL (docs/overload.md names the
        # exceptions) — it exists for deployment parity (health shape,
        # telemetry series) and for tests driving it directly.
        super().__init__(
            VirtualClock(),
            role="emulator",
            seed=seed,
            bounds=bounds,
            recorder=recorder,
            schedule_capacity=schedule_capacity,
            mac=mac,
            energy=energy,
            telemetry=telemetry,
            lag_budget=lag_budget,
            profile_hz=profile_hz,
        )
        self.engine.deliver = self._deliver_to_host
        # Wall-clock attribution even on the virtual clock: run_until
        # burns real CPU.
        if self.profiler is not None:
            self.profiler.start()
        self._hosts: dict[NodeId, VirtualNodeHost] = {}
        self._ids = IdAllocator()
        # A node removed directly through the scene (GUI op, scenario step)
        # must also disconnect its client, or its protocol keeps ticking.
        self.scene.add_listener(self._on_scene_event)

    def _on_scene_event(self, event) -> None:
        if event.kind == "node-removed":
            host = self._hosts.pop(event.node, None)
            if host is not None:
                host.detach_protocol()

    def shutdown(self) -> None:
        """Stop background machinery.  The emulator itself is
        thread-free on the virtual clock, so today this only stops the
        ``profile_hz`` sampler (and clears the process default when it
        was ours).  Idempotent; safe to skip for profile-less runs."""
        release_profiler(self.profiler)

    # -- topology construction ---------------------------------------------------

    def add_node(
        self,
        position: Vec2,
        radios: RadioConfig,
        *,
        node_id: Optional[NodeId] = None,
        label: str = "",
        protocol: Optional[RoutingProtocol] = None,
        clock_offset: float = 0.0,
        uplink: Optional[LatencySpec] = None,
        downlink: Optional[LatencySpec] = None,
    ) -> VirtualNodeHost:
        """Create a VMN + its client; optionally embed a protocol."""
        if node_id is None:
            node_id = NodeId(self._ids.allocate())
        self.scene.add_node(node_id, position, radios, label=label)
        host = VirtualNodeHost(
            self,
            node_id,
            clock_offset=clock_offset,
            uplink=uplink,
            downlink=downlink,
        )
        self._hosts[node_id] = host
        # Forensics: the virtual stack's equivalent of the §4.1 exchange
        # at registration.  The modelled ``clock_offset`` *is* the stamp
        # clock's error, known exactly (no transport asymmetry), so the
        # sample records offset = server − client = −clock_offset with a
        # matching residual — lineage skew-correction is then exact.
        now = self.clock.now()
        self.recorder.record_sync(
            SyncSample(
                node=int(node_id),
                label=label,
                offset=-clock_offset,
                delay=0.0,
                t_server=now,
                t_client=now + clock_offset,
                cause="register",
                residual=-clock_offset,
            )
        )
        if protocol is not None:
            host.attach_protocol(protocol)
        return host

    def remove_node(self, node_id: NodeId) -> None:
        """Disconnect a client and remove its VMN from the scene."""
        host = self._hosts.pop(node_id, None)
        if host is not None:
            host.detach_protocol()
        if node_id in self.scene:
            self.scene.remove_node(node_id)

    def host(self, node_id: NodeId) -> VirtualNodeHost:
        try:
            return self._hosts[node_id]
        except KeyError:
            raise SceneError(f"no client for node {node_id}") from None

    def hosts(self) -> list[VirtualNodeHost]:
        return list(self._hosts.values())

    # -- the pipeline ------------------------------------------------------------

    def _client_transmit(self, host: VirtualNodeHost, packet: Packet) -> None:
        """Client → server leg: uplink latency, then Steps 1–4."""
        delay = host.uplink.sample(host._rng)

        def arrive_at_server() -> None:
            tr = None
            if self._tracer is not None:
                tr = self._sampled_receive(
                    host.node_id, packet, _time_mod.perf_counter()
                )
            self._virtual_ingest(host.node_id, packet, tr)

        if delay <= 0.0:
            arrive_at_server()
        else:
            self.clock.call_after(delay, arrive_at_server)

    def _deliver_to_host(self, receiver: NodeId, packet: Packet) -> None:
        host = self._hosts.get(receiver)
        if host is None:
            return
        dl = host.downlink  # a zero downlink draws no latency
        if (dl.base or dl.jitter) and (delay := dl.sample(host._rng)) > 0.0:
            self.clock.call_after(delay, lambda: host._arrive(packet))
            return
        host.received.append(packet)  # arrives now: _arrive, inline
        if host.protocol is not None:
            host.protocol.on_packet(packet)
        elif host.on_app_packet is not None:
            host.on_app_packet(packet)

    # -- health (same shape as PoEmServer.health, minus real threads) -------------

    def health(self) -> dict:
        """Liveness snapshot of the in-process deployment.

        The virtual stack has no OS threads to supervise, but exposing
        the same shape as :meth:`repro.core.tcpserver.PoEmServer.health`
        lets the console/stats panes render either deployment.
        """
        return {
            "running": True,
            "time": self.clock.now(),
            "threads": {},
            "recent_failures": [],
            **virtual_clients(self.scene, self._hosts, self.clock.now()),
            **self._core_health(),
        }

    # -- running -------------------------------------------------------------------

    def run_until(self, t: float) -> None:
        """Advance emulation to time ``t`` (events + mobility)."""
        self.clock.run_until(t)
        self.scene.advance_time(t)

    def run_for(self, dt: float) -> None:
        self.run_until(self.clock.now() + dt)

    def enable_mobility_tick(self, interval: float) -> None:
        """Emit scene positions every ``interval`` s (for replay smoothness).

        Without this, mobility is evaluated lazily (exact, but the scene
        record only contains positions at packet instants).
        """

        def tick() -> None:
            self.scene.advance_time(self.clock.now())
            self.clock.call_after(interval, tick)

        self.clock.call_after(interval, tick)
