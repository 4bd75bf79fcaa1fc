"""MobiEmu-style distributed emulator baseline (§2.2, Fig 3).

In distributed emulators (MobiEmu [8], EMWIN [10], MASSIVE [3]) "each
station acting as a mobile node is responsible for directing and
forwarding traffic in a peer-to-peer manner", while "a central control
instance governs the overall network topology and regulates the
configuration of each mobile node by broadcasting scene messages".

This works only under the presumption that every station applies the
broadcast scene updates in step.  With heterogeneous stations and a
highly dynamic scene, updates land at different times and "real-time
scene construction may confuse some emulation nodes to direct their
traffic following the expired scene" (Fig 3).

:class:`MobiEmuEmulator` reproduces the architecture:

* the ground-truth :class:`~repro.core.scene.Scene` lives in the central
  controller; every mutation is broadcast as a scene message;
* each station keeps a **local replica**, applying each message after its
  own ``apply_lag`` (station heterogeneity — configurable per node);
* stations forward frames peer-to-peer using their **replica's** neighbor
  view and time-stamp locally (distributed stamping is accurate — the one
  thing this architecture is genuinely good at, Table 1's ✓);
* the emulator counts **stale-scene errors**: frames sent to a replica
  neighbor that is *not* a true neighbor (misdirected — they are dropped,
  as the real radio link does not exist) and true neighbors a broadcast
  missed (unreached).

Feature limits of the original, enforced honestly: single radio per node
and no scene recording / replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.clock import VirtualClock
from ..core.geometry import Vec2
from ..core.ids import ChannelId, IdAllocator, NodeId
from ..core.neighbor import ChannelIndexedNeighborTables
from ..core.packet import DropReason, Packet, PacketStamper, packet_row
from ..core.recording import MemoryRecorder, Recorder
from ..core.scene import Scene, SceneEvent
from ..errors import ConfigurationError, ProtocolError, SceneError
from ..models.radio import RadioConfig
from ..protocols.base import (
    ProtocolHost,
    RoutingProtocol,
    TimerService,
    VirtualTimerService,
)

__all__ = ["MobiEmuEmulator", "MobiEmuStation"]


@dataclass
class _ReplicaNode:
    """One node's state inside a station's local scene replica."""

    x: float
    y: float
    channel: int
    range: float


class MobiEmuStation(ProtocolHost):
    """One distributed station: local replica + peer-to-peer forwarding."""

    def __init__(
        self,
        emulator: "MobiEmuEmulator",
        node_id: NodeId,
        apply_lag: float,
    ) -> None:
        self._emulator = emulator
        self._node_id = node_id
        self.apply_lag = apply_lag
        self.replica: dict[NodeId, _ReplicaNode] = {}
        self._stamper = PacketStamper(node_id)
        self._timers = VirtualTimerService(emulator.clock)
        self.protocol: Optional[RoutingProtocol] = None
        self.received: list[Packet] = []
        self.app_received: list[Packet] = []
        self.updates_applied = 0

    # -- replica maintenance ---------------------------------------------------

    def apply_scene_message(self, event: SceneEvent) -> None:
        """Apply one broadcast scene message to the local replica."""
        self.updates_applied += 1
        kind, node, d = event.kind, event.node, event.details
        if kind == "node-added":
            radio = d["radios"][0]
            self.replica[node] = _ReplicaNode(
                x=float(d["x"]), y=float(d["y"]),
                channel=int(radio["channel"]), range=float(radio["range"]),
            )
        elif kind == "node-removed":
            self.replica.pop(node, None)
        elif node in self.replica:
            if kind == "node-moved":
                self.replica[node].x = float(d["x"])
                self.replica[node].y = float(d["y"])
            elif kind == "channel-set":
                self.replica[node].channel = int(d["channel"])
            elif kind == "range-set":
                self.replica[node].range = float(d["range"])

    def replica_neighbors(self) -> set[NodeId]:
        """Who *this station believes* it can reach right now."""
        me = self.replica.get(self._node_id)
        if me is None:
            return set()
        out = set()
        for other_id, other in self.replica.items():
            if other_id == self._node_id or other.channel != me.channel:
                continue
            d = ((me.x - other.x) ** 2 + (me.y - other.y) ** 2) ** 0.5
            if d <= me.range:
                out.add(other_id)
        return out

    # -- ProtocolHost -------------------------------------------------------------

    @property
    def node_id(self) -> NodeId:
        return self._node_id

    def channels(self) -> frozenset[ChannelId]:
        me = self.replica.get(self._node_id)
        return frozenset() if me is None else frozenset({ChannelId(me.channel)})

    def now(self) -> float:
        return self._emulator.clock.now()

    def transmit(
        self,
        destination: NodeId,
        payload: bytes,
        *,
        channel: ChannelId,
        kind: str = "data",
        size_bits: Optional[int] = None,
    ) -> Packet:
        me = self.replica.get(self._node_id)
        if me is None or ChannelId(me.channel) != channel:
            raise ProtocolError(
                f"station {self._node_id} has no radio on channel {channel}"
            )
        packet = self._stamper.make_packet(
            destination, payload, channel=channel, kind=kind,
            size_bits=size_bits, t_origin=self.now(),
        )
        self._emulator._station_transmit(self, packet)
        return packet

    def timers(self) -> TimerService:
        return self._timers

    def deliver_to_app(self, packet: Packet) -> None:
        self.app_received.append(packet)

    def _receive(self, packet: Packet) -> None:
        self.received.append(packet)
        if self.protocol is not None:
            self.protocol.on_packet(packet)

    def attach_protocol(self, protocol: RoutingProtocol) -> None:
        if self.protocol is not None:
            raise ProtocolError("station already runs a protocol")
        self.protocol = protocol
        protocol.start(self)


class MobiEmuEmulator:
    """Distributed emulation: broadcast scene, peer-to-peer forwarding."""

    FEATURES = {
        "realtime_scene_construction": False,
        "realtime_traffic_recording": True,
        "multi_radio": False,
        "replay": False,
    }

    def __init__(
        self,
        *,
        seed: Optional[int] = 0,
        recorder: Optional[Recorder] = None,
        default_apply_lag: float = 0.0,
    ) -> None:
        self.clock = VirtualClock()
        self.scene = Scene(seed=seed)  # ground truth, in the controller
        self.scene.bind_time_source(self.clock.now)
        self.neighbors = ChannelIndexedNeighborTables(self.scene)
        self.recorder = recorder if recorder is not None else MemoryRecorder()
        self._stations: dict[NodeId, MobiEmuStation] = {}
        self._ids = IdAllocator()
        self._rng = np.random.default_rng(seed)
        self.default_apply_lag = default_apply_lag
        self.scene_messages_sent = 0
        self.misdirected = 0  # frames sent on links that don't truly exist
        self.delivered = 0
        self.scene.add_listener(self._broadcast_scene_message)

    # -- topology -------------------------------------------------------------------

    def add_station(
        self,
        position: Vec2,
        radios: RadioConfig,
        *,
        apply_lag: Optional[float] = None,
        label: str = "",
        protocol: Optional[RoutingProtocol] = None,
    ) -> MobiEmuStation:
        if len(radios.radios) > 1:
            raise ConfigurationError(
                "MobiEmu baseline does not emulate multi-radio nodes"
            )
        node_id = NodeId(self._ids.allocate())
        station = MobiEmuStation(
            self,
            node_id,
            self.default_apply_lag if apply_lag is None else apply_lag,
        )
        # Bootstrap: the controller hands the joining station a snapshot of
        # the current scene (one synthetic node-added per existing node).
        for other_id, info in self.scene.snapshot().items():
            station.apply_scene_message(
                SceneEvent(
                    self.clock.now(),
                    "node-added",
                    other_id,
                    {
                        "x": info["x"],
                        "y": info["y"],
                        "label": info["label"],
                        "radios": info["radios"],
                    },
                )
            )
        self._stations[node_id] = station
        # Adding the node broadcasts node-added to everyone (incl. itself).
        self.scene.add_node(node_id, position, radios, label=label)
        if protocol is not None:
            station.attach_protocol(protocol)
        return station

    def station(self, node_id: NodeId) -> MobiEmuStation:
        try:
            return self._stations[node_id]
        except KeyError:
            raise SceneError(f"no station for node {node_id}") from None

    # -- the scene broadcast (the architecture's Achilles heel) ---------------------------

    def _broadcast_scene_message(self, event: SceneEvent) -> None:
        """Controller → every station, applied after per-station lag.

        A station learns about changes to *itself* immediately (its own
        configuration is local); everyone else's view of it lags.
        """
        for station in self._stations.values():
            self.scene_messages_sent += 1
            if station.apply_lag <= 0.0 or event.node == station.node_id:
                station.apply_scene_message(event)
            else:
                self.clock.call_after(
                    station.apply_lag,
                    lambda s=station, e=event: s.apply_scene_message(e),
                )

    # -- peer-to-peer forwarding ------------------------------------------------------------

    def _station_transmit(self, station: MobiEmuStation, packet: Packet) -> None:
        """Forward per the *replica*; reality adjudicates each delivery."""
        believed = station.replica_neighbors()
        if packet.is_broadcast:
            targets = sorted(believed)
        elif packet.destination in believed:
            targets = [packet.destination]
        else:
            self._record(packet, station.node_id, None, DropReason.NOT_NEIGHBOR)
            return
        # Reality's row: who truly hears the station, and Step 3 per target.
        fan = self.neighbors.fanout(station.node_id, packet.channel)
        t_receipt = packet.t_origin  # distributed stamping: local, exact
        for target in targets:
            idx = fan.index.get(target)
            if idx is None:
                # The station believed a link that reality lacks: the frame
                # radiates into the void — Fig 3's expired-scene error.
                self.misdirected += 1
                self._record(
                    packet, station.node_id, target, DropReason.NOT_NEIGHBOR
                )
                continue
            lost, runs = fan.forward(
                self._rng, [idx],
                t_receipt if t_receipt is not None else self.clock.now(),
                packet.size_bits,
            )
            if lost:
                self._record(
                    packet, station.node_id, target, DropReason.LOSS_MODEL
                )
                continue
            t_arrive = runs[0][0]
            stamped = packet.stamped(t_receipt=t_receipt, t_forward=t_arrive)
            self.delivered += 1
            self._record(stamped.stamped(t_delivered=t_arrive),
                         station.node_id, target, None)
            receiver = self._stations.get(target)
            if receiver is not None:
                self.clock.call_at(
                    max(t_arrive, self.clock.now()),
                    lambda rcv=receiver, p=stamped, t=t_arrive: rcv._receive(
                        p.stamped(t_delivered=t)
                    ),
                )

    def _record(
        self,
        packet: Packet,
        sender: NodeId,
        receiver: Optional[NodeId],
        drop_reason: Optional[str],
    ) -> None:
        self.recorder.record_packet(
            packet_row(packet, sender, receiver, drop_reason)
        )

    # -- ground-truth audit -------------------------------------------------------------

    def staleness_report(self) -> dict[NodeId, int]:
        """Per-station count of replica/truth neighbor-set disagreements."""
        report: dict[NodeId, int] = {}
        for node_id, station in self._stations.items():
            if node_id not in self.scene:
                continue
            channel = next(iter(self.scene.channels_of(node_id)), None)
            if channel is None:
                continue
            truth = self.neighbors.neighbors(node_id, channel)
            believed = station.replica_neighbors()
            report[node_id] = len(truth ^ believed)
        return report

    # -- running -----------------------------------------------------------------------------

    def run_until(self, t: float) -> None:
        self.clock.run_until(t)
        self.scene.advance_time(t)

    def run_for(self, dt: float) -> None:
        self.run_until(self.clock.now() + dt)
